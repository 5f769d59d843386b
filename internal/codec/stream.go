package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Length-prefixed framing over a byte stream. Each connection owns one
// sticky FrameWriter/FrameReader pair for its whole lifetime, so the
// bufio buffers and the reader's frame scratch buffer are paid once per
// connection, not once per message.
//
// Wire format: a 4-byte big-endian frame length followed by the frame
// body. The body's interpretation (the envelope encoding) belongs to the
// transport layer.

// MaxFrameSize bounds a single frame (64 MiB) so a corrupt length prefix
// cannot trigger an absurd allocation.
const MaxFrameSize = 64 << 20

// frameBufSize sizes the per-connection bufio buffers: big enough to
// coalesce many small envelopes into one syscall.
const frameBufSize = 64 << 10

// FrameWriter writes length-prefixed frames through a buffered writer.
// Writes accumulate in the buffer until Flush. Not safe for concurrent use:
// the transport's senders write under the peer's write mutex, and a sender
// that sees another queued behind it leaves the flush to that one.
type FrameWriter struct {
	w   *bufio.Writer
	hdr [4]byte // length-prefix scratch: a local would escape through Write
}

// NewFrameWriter wraps w (typically a net.Conn).
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriterSize(w, frameBufSize)}
}

// WriteFrame appends one frame to the stream buffer. The frame is copied;
// the caller may recycle it immediately.
func (f *FrameWriter) WriteFrame(frame []byte) error {
	if len(frame) > MaxFrameSize {
		return fmt.Errorf("codec: frame of %d bytes exceeds limit", len(frame))
	}
	binary.BigEndian.PutUint32(f.hdr[:], uint32(len(frame)))
	if _, err := f.w.Write(f.hdr[:]); err != nil {
		return err
	}
	_, err := f.w.Write(frame)
	return err
}

// Flush pushes buffered frames to the underlying writer.
func (f *FrameWriter) Flush() error { return f.w.Flush() }

// FrameReader reads length-prefixed frames, reusing one scratch buffer
// across reads. Not safe for concurrent use.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
	hdr [4]byte // length-prefix scratch, as in FrameWriter
}

// NewFrameReader wraps r (typically a net.Conn).
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, frameBufSize)}
}

// frameAllocChunk bounds how much scratch the reader grows per read step:
// a corrupt length prefix claiming a near-MaxFrameSize frame must prove the
// stream actually carries the bytes, chunk by chunk, before the full
// allocation happens.
const frameAllocChunk = 1 << 20

// ReadFrame returns the next frame body. The returned slice is the
// reader's scratch buffer: it is valid only until the next ReadFrame, and
// anything retained from it (e.g. an envelope payload) must be copied out.
func (f *FrameReader) ReadFrame() ([]byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(f.hdr[:]))
	if n > MaxFrameSize {
		return nil, fmt.Errorf("codec: frame of %d bytes exceeds limit", n)
	}
	if cap(f.buf) < n {
		if n <= frameAllocChunk {
			f.buf = make([]byte, n)
		} else {
			// Large frame: grow the scratch buffer incrementally while the
			// bytes arrive, so a lying length prefix on a short stream costs
			// at most one chunk of allocation.
			if cap(f.buf) < frameAllocChunk {
				f.buf = make([]byte, frameAllocChunk)
			}
			for read := 0; read < n; {
				if read == cap(f.buf) {
					grown := make([]byte, min(cap(f.buf)*2, n))
					copy(grown, f.buf[:read])
					f.buf = grown
				}
				step := min(cap(f.buf), n) - read
				if _, err := io.ReadFull(f.r, f.buf[read:read+step]); err != nil {
					return nil, err
				}
				read += step
			}
			return f.buf[:n], nil
		}
	}
	buf := f.buf[:n]
	if _, err := io.ReadFull(f.r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
