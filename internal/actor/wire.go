package actor

import (
	"fmt"

	"actop/internal/codec"
	"actop/internal/graph"
	"actop/internal/partition"
	"actop/internal/transport"
)

// Wire forms of the control plane. Every message the runtime itself sends
// between nodes is encoded by hand here (codec.Marshaler/Unmarshaler), so a
// first call, a cache miss, a migration, an exchange and a heartbeat never
// reach the gob fallback; an acknowledgement is an empty payload and a ping
// carries none (the envelope's From is the proof of life). Only the two
// debug verbs, traces and hotspots, still ride gob. Layouts, in field order
// (str = uvarint length + bytes, u = uvarint, i = zig-zag varint, f = 8
// bytes big-endian float, b = one 0/1 byte):
//
//	dir.lookup/update/remove, actop.snapget   dirRequest: str Type, str Key, str Suggest, b Place, str NewNode, u Epoch
//	dir.lookup reply                          wireNode: the name's bytes
//	migrate.put/drop                          migratePayload: str Type, str Key, str ID, u Epoch, u SnapSeq, b HasState, str State (copied on decode)
//	actop.exchange                            exchangeWire: i From, i FromPopulation, i k, i δ, f MinScore,
//	                                          u #candidates × (u V, f HomeWeight, f TargetWeight, u #edges × (u U, f w)), edges by ascending U
//	actop.exchange reply                      exchangeReply: b Rejected, u #accepted × u V, u #counter × u V
//
// There is one encoding per verb and no version switch: decoders reject
// anything else, including trailing bytes.

// wireReader consumes a control payload field by field. The first short or
// malformed field sticks in err and every later read returns zero, so a
// decoder reads straight through and checks once, in end.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) uvarint() (v uint64) {
	if r.err == nil {
		v, r.data, r.err = codec.ReadUvarint(r.data)
	}
	return v
}

func (r *wireReader) varint() int {
	var v int64
	if r.err == nil {
		v, r.data, r.err = codec.ReadVarint(r.data)
	}
	return int(v)
}

func (r *wireReader) float() (v float64) {
	if r.err == nil {
		v, r.data, r.err = codec.ReadFloat64(r.data)
	}
	return v
}

func (r *wireReader) bool() (v bool) {
	if r.err == nil {
		v, r.data, r.err = codec.ReadBool(r.data)
	}
	return v
}

func (r *wireReader) str() (v string) {
	if r.err == nil {
		v, r.data, r.err = codec.ReadString(r.data)
	}
	return v
}

// bytes copies a length-prefixed field out of the payload; empty reads as nil.
func (r *wireReader) bytes() []byte {
	var v []byte
	if r.err == nil {
		v, r.data, r.err = codec.ReadBytes(r.data)
	}
	if len(v) == 0 {
		return nil
	}
	return append([]byte(nil), v...)
}

// count reads an element count and refuses one the rest of the payload
// cannot hold at size bytes an element, so a corrupt count cannot size an
// allocation.
func (r *wireReader) count(size int) int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.data)/size) {
		r.err = fmt.Errorf("%w: %d elements", codec.ErrShortBuffer, n)
		return 0
	}
	return int(n)
}

func (r *wireReader) vertices() []graph.Vertex {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	vs := make([]graph.Vertex, n)
	for i := range vs {
		vs[i] = graph.Vertex(r.uvarint())
	}
	return vs
}

// end reports the first read error, or bytes left over.
func (r *wireReader) end() error {
	if r.err == nil && len(r.data) != 0 {
		return fmt.Errorf("actor: %d trailing bytes in control payload", len(r.data))
	}
	return r.err
}

// wireNode is a node id as a control payload: the bytes of its name.
type wireNode transport.NodeID

func (n wireNode) AppendBinary(dst []byte) ([]byte, error) { return append(dst, n...), nil }

func (n *wireNode) UnmarshalBinary(data []byte) error {
	*n = wireNode(data)
	return nil
}

func (r dirRequest) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendString(dst, r.Type)
	dst = codec.AppendString(dst, r.Key)
	dst = codec.AppendString(dst, r.Suggest)
	dst = codec.AppendBool(dst, r.Place)
	dst = codec.AppendString(dst, r.NewNode)
	return codec.AppendUvarint(dst, r.Epoch), nil
}

func (r *dirRequest) UnmarshalBinary(data []byte) error {
	rd := wireReader{data: data}
	*r = dirRequest{
		Type: rd.str(), Key: rd.str(), Suggest: rd.str(), Place: rd.bool(),
		NewNode: rd.str(), Epoch: rd.uvarint(),
	}
	return rd.end()
}

func (p migratePayload) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendString(dst, p.Type)
	dst = codec.AppendString(dst, p.Key)
	dst = codec.AppendString(dst, p.ID)
	dst = codec.AppendUvarint(dst, p.Epoch)
	dst = codec.AppendUvarint(dst, p.SnapSeq)
	dst = codec.AppendBool(dst, p.HasState)
	return codec.AppendBytes(dst, p.State), nil
}

// UnmarshalBinary copies State out of data: Restore implementations may
// keep the slice they are handed.
func (p *migratePayload) UnmarshalBinary(data []byte) error {
	rd := wireReader{data: data}
	*p = migratePayload{
		Type: rd.str(), Key: rd.str(), ID: rd.str(), Epoch: rd.uvarint(),
		SnapSeq: rd.uvarint(), HasState: rd.bool(), State: rd.bytes(),
	}
	return rd.end()
}

// AppendBinary writes each candidate's edges in their order, ascending by
// vertex, so an exchange frame is a pure function of its content.
func (w exchangeWire) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendVarint(dst, int64(w.Req.From))
	dst = codec.AppendVarint(dst, int64(w.Req.FromPopulation))
	dst = codec.AppendVarint(dst, int64(w.Opts.CandidateSetSize))
	dst = codec.AppendVarint(dst, int64(w.Opts.ImbalanceTolerance))
	dst = codec.AppendFloat64(dst, w.Opts.MinScore)
	dst = codec.AppendUvarint(dst, uint64(len(w.Req.Candidates)))
	for _, c := range w.Req.Candidates {
		dst = codec.AppendUvarint(dst, uint64(c.V))
		dst = codec.AppendFloat64(dst, c.HomeWeight)
		dst = codec.AppendFloat64(dst, c.TargetWeight)
		dst = codec.AppendUvarint(dst, uint64(len(c.Edges)))
		for _, e := range c.Edges {
			dst = codec.AppendUvarint(dst, uint64(e.U))
			dst = codec.AppendFloat64(dst, e.W)
		}
	}
	return dst, nil
}

// UnmarshalBinary decodes every candidate's edges into one slab, sized by
// what the payload can hold, and refuses edges not strictly ascending: the
// receiver looks them up by binary search.
func (w *exchangeWire) UnmarshalBinary(data []byte) error {
	rd := wireReader{data: data}
	*w = exchangeWire{}
	w.Req.From, w.Req.FromPopulation = graph.ServerID(rd.varint()), rd.varint()
	w.Opts.CandidateSetSize, w.Opts.ImbalanceTolerance, w.Opts.MinScore = rd.varint(), rd.varint(), rd.float()
	if n := rd.count(18); n > 0 { // a candidate is at least V, two weights and a count
		w.Req.Candidates = make([]partition.Candidate, n)
	}
	slab := make([]partition.Edge, 0, len(rd.data)/9) // an edge is at least a vertex and a weight
	for i := range w.Req.Candidates {
		c := &w.Req.Candidates[i]
		c.V, c.HomeWeight, c.TargetWeight = graph.Vertex(rd.uvarint()), rd.float(), rd.float()
		start := len(slab)
		for n := rd.count(9); n > 0; n-- {
			e := partition.Edge{U: graph.Vertex(rd.uvarint()), W: rd.float()}
			if len(slab) > start && e.U <= slab[len(slab)-1].U && rd.err == nil {
				rd.err = fmt.Errorf("actor: exchange edges of %d not ascending", c.V)
			}
			slab = append(slab, e)
		}
		if len(slab) > start {
			c.Edges = slab[start:len(slab):len(slab)]
		}
	}
	return rd.end()
}

func (r exchangeReply) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendBool(dst, r.Rejected)
	for _, vs := range [][]graph.Vertex{r.Accepted, r.Counter} {
		dst = codec.AppendUvarint(dst, uint64(len(vs)))
		for _, v := range vs {
			dst = codec.AppendUvarint(dst, uint64(v))
		}
	}
	return dst, nil
}

func (r *exchangeReply) UnmarshalBinary(data []byte) error {
	rd := wireReader{data: data}
	*r = exchangeReply{Rejected: rd.bool(), Accepted: rd.vertices(), Counter: rd.vertices()}
	return rd.end()
}
