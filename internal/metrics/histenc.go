package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary encoding of a Histogram, for shipping measurements across process
// boundaries. The format is sparse — one varint (delta-index, count) pair
// per non-empty bucket — so a latency histogram with a few dozen live
// buckets costs ~100 bytes, not 8×histBucketN.
const histEncVersion = 1

// AppendBinary appends h's encoding to b and returns the extended slice.
func (h *Histogram) AppendBinary(b []byte) []byte {
	b = append(b, histEncVersion)
	b = binary.AppendUvarint(b, h.total)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.sum))
	b = binary.AppendUvarint(b, uint64(h.min))
	b = binary.AppendUvarint(b, uint64(h.max))
	nonzero := uint64(0)
	for _, c := range h.counts {
		if c != 0 {
			nonzero++
		}
	}
	b = binary.AppendUvarint(b, nonzero)
	prev := 0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		b = binary.AppendUvarint(b, uint64(i-prev))
		b = binary.AppendUvarint(b, c)
		prev = i
	}
	return b
}

// UnmarshalBinary replaces h's contents with the encoded histogram in data
// (which must contain exactly one encoding, as produced by AppendBinary).
func (h *Histogram) UnmarshalBinary(data []byte) error {
	if len(data) < 1 || data[0] != histEncVersion {
		return fmt.Errorf("metrics: bad histogram encoding header")
	}
	data = data[1:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("metrics: truncated histogram encoding")
		}
		data = data[n:]
		return v, nil
	}
	h.Reset()
	total, err := next()
	if err != nil {
		return err
	}
	if len(data) < 8 {
		return fmt.Errorf("metrics: truncated histogram encoding")
	}
	sum := math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	min, err := next()
	if err != nil {
		return err
	}
	max, err := next()
	if err != nil {
		return err
	}
	nonzero, err := next()
	if err != nil {
		return err
	}
	idx := 0
	var counted uint64
	for i := uint64(0); i < nonzero; i++ {
		delta, err := next()
		if err != nil {
			return err
		}
		c, err := next()
		if err != nil {
			return err
		}
		if i > 0 && delta == 0 {
			return fmt.Errorf("metrics: histogram encoding repeats bucket %d", idx)
		}
		if delta > histBucketN {
			return fmt.Errorf("metrics: histogram bucket delta %d out of range", delta)
		}
		idx += int(delta)
		if idx < 0 || idx > histBucketN {
			return fmt.Errorf("metrics: histogram bucket index %d out of range", idx)
		}
		// Guard the running sum before adding: bucket counts must sum to
		// exactly total, so any single count above the remainder is invalid —
		// and letting it through would wrap counted around uint64 and forge
		// agreement with total.
		if c > total-counted {
			return fmt.Errorf("metrics: histogram bucket count %d exceeds remaining total %d", c, total-counted)
		}
		h.counts[idx] = c
		counted += c
	}
	if counted != total {
		return fmt.Errorf("metrics: histogram encoding total %d != bucket sum %d", total, counted)
	}
	h.total = total
	h.sum = sum
	h.min = int64(min)
	h.max = int64(max)
	return nil
}
