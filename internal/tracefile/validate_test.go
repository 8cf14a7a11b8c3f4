package tracefile

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// event is one decoded stream event of the reference decoder.
type event struct {
	op     byte
	n      uint64 // exec count / bulk length
	region int
	addr   uint64 // absolute word-access address
	off    uint64 // bulk offset
	fifo   int
}

// walker is the reference stream decoder: a generic one-event-at-a-time
// walk built on encoding/binary. It validates framing (opcodes,
// varints, table indices); deep semantic bounds are the caller's job.
// The inline validator in validateStreams must agree with it exactly.
type walker struct {
	data    []byte
	pos     int
	prev    uint64
	regions int
	fifos   int
}

func (w *walker) more() bool { return w.pos < len(w.data) }

func (w *walker) uvarint() (uint64, error) {
	v, n := binary.Uvarint(w.data[w.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("tracefile: bad uvarint at stream offset %d", w.pos)
	}
	w.pos += n
	return v, nil
}

func (w *walker) svarint() (int64, error) {
	v, n := binary.Varint(w.data[w.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("tracefile: bad varint at stream offset %d", w.pos)
	}
	w.pos += n
	return v, nil
}

func (w *walker) next() (event, error) {
	var ev event
	ev.op = w.data[w.pos]
	w.pos++
	switch ev.op {
	case evExec:
		n, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		if n > maxExecRun {
			return ev, fmt.Errorf("tracefile: exec run of %d instructions out of range", n)
		}
		ev.n = n
	case evRead4, evWrite4, evRead1, evWrite1:
		r, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		if r >= uint64(w.regions) {
			return ev, fmt.Errorf("tracefile: access references region %d of %d", r, w.regions)
		}
		d, err := w.svarint()
		if err != nil {
			return ev, err
		}
		ev.region = int(r)
		ev.addr = uint64(int64(w.prev) + d)
		w.prev = ev.addr
	case evBulkRead, evBulkWrite:
		r, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		if r >= uint64(w.regions) {
			return ev, fmt.Errorf("tracefile: bulk references region %d of %d", r, w.regions)
		}
		off, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		n, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		ev.region, ev.off, ev.n = int(r), off, n
	case evFifoWrite, evFifoRdOK, evFifoRdEOF, evFifoClose:
		f, err := w.uvarint()
		if err != nil {
			return ev, err
		}
		if f >= uint64(w.fifos) {
			return ev, fmt.Errorf("tracefile: fifo event references fifo %d of %d", f, w.fifos)
		}
		ev.fifo = int(f)
	default:
		return ev, fmt.Errorf("tracefile: unknown opcode %#x at stream offset %d", ev.op, w.pos-1)
	}
	return ev, nil
}

// referenceValidate is the walker-based stream validator validateStreams
// replaced. Its word-access bound is the overflow-safe form
// base <= addr <= base+size-s; the form addr+s > base+size let an
// address within 3 bytes of 2^64 wrap and pass.
func referenceValidate(t *Trace) (Totals, error) {
	h := &t.Header
	var tot Totals
	for si, stream := range t.streams {
		w := walker{data: stream, regions: len(h.Regions), fifos: len(h.FIFOs)}
		var events uint64
		for w.more() {
			ev, err := w.next()
			if err != nil {
				return tot, fmt.Errorf("%w (task %q)", err, h.Tasks[si].Name)
			}
			events++
			switch ev.op {
			case evExec:
				tot.Instrs += ev.n
			case evRead4, evWrite4, evRead1, evWrite1:
				_, size := accessClass(ev.op)
				ri := h.Regions[ev.region]
				if ev.addr < ri.Base || ev.addr > ri.Base+ri.Size-uint64(size) {
					return tot, fmt.Errorf("tracefile: task %q: access at %#x outside region %q", h.Tasks[si].Name, ev.addr, ri.Name)
				}
				tot.Accesses++
			case evBulkRead, evBulkWrite:
				ri := h.Regions[ev.region]
				if ev.n == 0 || ev.off+ev.n < ev.off || ev.off+ev.n > ri.Size {
					return tot, fmt.Errorf("tracefile: task %q: bulk %d@%d outside region %q", h.Tasks[si].Name, ev.n, ev.off, ri.Name)
				}
				tot.BulkOps++
				tot.BulkBytes += ev.n
			default:
				tot.FIFOOps++
			}
		}
		if events != h.Streams[si].Events {
			return tot, fmt.Errorf("tracefile: task %q: %d events, header declares %d", h.Tasks[si].Name, events, h.Streams[si].Events)
		}
		tot.Events += events
	}
	if tot.Events != h.Events {
		return tot, fmt.Errorf("tracefile: %d events, header declares %d", tot.Events, h.Events)
	}
	if tot.Instrs != h.Instrs {
		return tot, fmt.Errorf("tracefile: %d instructions, header declares %d", tot.Instrs, h.Instrs)
	}
	return tot, nil
}

// withStreams returns a trace over base's header whose two task streams
// are s0 and s1. The header's event and instruction counts are what the
// reference walker tallies up to the first framing error, so framing-
// valid streams can be accepted; the low four bits of skew each push
// one declared count off by one.
func withStreams(base *Trace, s0, s1 []byte, skew uint8) *Trace {
	h := base.Header
	h.Streams = []StreamInfo{{Bytes: uint64(len(s0))}, {Bytes: uint64(len(s1))}}
	h.Events, h.Instrs = 0, 0
	for i, s := range [][]byte{s0, s1} {
		w := walker{data: s, regions: len(h.Regions), fifos: len(h.FIFOs)}
		for w.more() {
			ev, err := w.next()
			if err != nil {
				break
			}
			h.Streams[i].Events++
			if ev.op == evExec {
				h.Instrs += ev.n
			}
		}
		h.Events += h.Streams[i].Events
	}
	h.Streams[0].Events += uint64(skew & 1)
	h.Streams[1].Events += uint64(skew >> 1 & 1)
	h.Events += uint64(skew >> 2 & 1)
	h.Instrs += uint64(skew >> 3 & 1)
	return &Trace{Header: h, streams: [][]byte{s0, s1}}
}

// stream concatenates event records: ints (the untyped opcode
// constants) and bytes are taken as single bytes, uint64s are appended
// as uvarints and int64s as (zigzag) varints.
func stream(parts ...any) []byte {
	var b []byte
	for _, p := range parts {
		switch v := p.(type) {
		case int:
			b = append(b, byte(v))
		case byte:
			b = append(b, v)
		case []byte:
			b = append(b, v...)
		case uint64:
			b = binary.AppendUvarint(b, v)
		case int64:
			b = binary.AppendVarint(b, v)
		default:
			panic(fmt.Sprintf("stream: unsupported part %T", p))
		}
	}
	return b
}

// FuzzValidateDifferential pins the inline stream validator to the
// reference walker: on every pair of task streams both must accept or
// both reject, with the same error text, and an accepted trace must
// tally the same Totals.
func FuzzValidateDifferential(f *testing.F) {
	base, err := Capture(miniWorkload(), Meta{Workload: "mini", Scale: "small", Seed: 0})
	if err != nil {
		f.Fatal(err)
	}
	r0 := base.Header.Regions[0]
	lo := int64(r0.Base)
	hi := int64(r0.Base + r0.Size)
	nreg := uint64(len(base.Header.Regions))
	live0, live1 := base.Stream(0), base.Stream(1)
	for skew := uint8(0); skew < 16; skew++ {
		f.Add(live0, live1, skew)
	}
	seeds := [][]byte{
		// Non-minimal varints decode like minimal ones.
		{evExec, 0x80, 0x00},
		stream(evRead4, []byte{0x80, 0x00}, lo),
		stream(evFifoWrite, []byte{0x80, 0x00}),
		// Varints truncated at the end of the stream.
		{evExec, 0x80},
		{evExec},
		stream(evWrite1, uint64(0)),
		stream(evRead4, uint64(0), []byte{0xff}),
		stream(evBulkRead, uint64(0), uint64(0)),
		{evFifoClose},
		// Varints overflowing 64 bits.
		{evExec, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		{evExec, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		// Word accesses at, inside and outside region 0's edges, and
		// one whose address wraps past 2^64.
		stream(evRead4, uint64(0), lo, evWrite4, uint64(0), hi-lo-4),
		stream(evRead4, uint64(0), hi-3),
		stream(evRead1, uint64(0), hi-1, evWrite1, uint64(0), int64(1)),
		stream(evWrite4, uint64(0), lo-1),
		stream(evRead4, uint64(0), int64(0)),
		stream(evRead4, uint64(0), int64(-1)),
		stream(evRead1, uint64(0), int64(-1)),
		// Bulk ranges: in bounds, zero length, past the end, off+n
		// overflowing.
		stream(evBulkRead, uint64(0), uint64(0), r0.Size),
		stream(evBulkWrite, uint64(0), uint64(1), uint64(0)),
		stream(evBulkWrite, uint64(0), uint64(1), r0.Size),
		stream(evBulkRead, uint64(0), ^uint64(0), uint64(2)),
		// Region and fifo indices out of range.
		stream(evRead4, nreg, lo),
		stream(evBulkRead, nreg+99, uint64(0), uint64(1)),
		stream(evFifoRdOK, uint64(1)),
		stream(evFifoRdEOF, uint64(1)<<40),
		// Unknown opcodes.
		{evCount},
		{0xff},
		stream(evExec, uint64(3), byte(0x80)),
		// Exec runs at and above maxExecRun.
		stream(evExec, uint64(maxExecRun)),
		stream(evExec, uint64(maxExecRun+1)),
	}
	for _, s := range seeds {
		f.Add(s, live1, uint8(0))
		f.Add(live0, s, uint8(0))
	}

	f.Fuzz(func(t *testing.T, s0, s1 []byte, skew uint8) {
		got := withStreams(base, s0, s1, skew)
		err := got.validateStreams()
		want, werr := referenceValidate(withStreams(base, s0, s1, skew))
		switch {
		case (err == nil) != (werr == nil):
			t.Fatalf("validators disagree: inline %v, reference %v", err, werr)
		case err != nil:
			if err.Error() != werr.Error() {
				t.Fatalf("validators reject differently:\n inline    %v\n reference %v", err, werr)
			}
		case got.Totals != want:
			t.Fatalf("totals differ: inline %+v, reference %+v", got.Totals, want)
		}
	})
}

// TestValidateRejectsWrappingAccess pins the overflow-safe access bound:
// a word access whose end wraps past 2^64 lies in no region.
func TestValidateRejectsWrappingAccess(t *testing.T) {
	base := captureMini(t)
	for _, d := range []int64{-1, -3} {
		tr := withStreams(base, stream(evRead4, uint64(0), d), nil, 0)
		if err := tr.validateStreams(); err == nil || !strings.Contains(err.Error(), "outside region") {
			t.Errorf("access at %#x: got %v, want an outside-region error", uint64(d), err)
		}
	}
}

// BenchmarkDecode measures full trace validation (CRC, header and every
// stream event) of a small-scale capture.
func BenchmarkDecode(b *testing.B) {
	w, err := workloads.Build("2jpeg+canny", workloads.BuildConfig{Scale: workloads.Small})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Capture(w, Meta{Workload: "2jpeg+canny", Scale: "small"})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(tr.Size()))
	for b.Loop() {
		if _, err := Decode(tr.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Totals.Events), "ns/event")
}
