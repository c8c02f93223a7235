// Package trace implements the record-once branch/predicate trace
// subsystem: a compact varint-encoded binary format for the committed
// instruction stream of one benchmark run, a context-aware recorder
// driven by the functional emulator (package emulator's StepHook seam),
// and a content-keyed disk cache so a trace is recorded once per
// prepared benchmark and reused across processes.
//
// A trace captures exactly the events the branch-prediction schemes
// observe on the committed path — conditional-branch outcomes, compare
// predicate outcomes, compare→branch producer distances, indirect
// targets, calls/returns, and region markers — and none of the value
// or timing state. Replaying it through a predictor organization
// (internal/stats.Replay) reproduces the predictor's commit-order
// behaviour one to two orders of magnitude faster than the full
// out-of-order pipeline, which is what makes full-suite predictor
// sweeps cheap (the Figure 5/6 questions are functions of this stream,
// not of cycle timing).
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"repro/internal/isa"
	"repro/internal/program"
)

// magic identifies a trace stream; the trailing digit is the format
// version and must change with any encoding change (it also feeds the
// disk-cache key, so stale files are never misread as current).
const magic = "PPTRACE1"

// Event kinds (low 3 bits of the kind byte).
const (
	EvCondBr  = 1 // conditional direct branch
	EvCompare = 2 // predicate-producing compare
	EvCall    = 3 // call (RAS push)
	EvRet     = 4 // return (RAS pop, indirect target)
	EvBrInd   = 5 // indirect branch (target-table consumer)
	EvHalt    = 6 // halt committed
	EvMarker  = 7 // out-of-band marker (region / tooling)
)

// Kind-specific flag bits (high 5 bits of the kind byte).
const (
	flagTaken = 1 << 3 // EvCondBr, EvRet, EvBrInd: branch was taken

	fBrProducer = 1 << 4 // EvCondBr: guard has a recorded producer compare

	fCmpQPTrue  = 1 << 4 // EvCompare: qualifying predicate was true
	fCmpGuarded = 1 << 5 // EvCompare: guarded by a predicate other than p0
	fCmpUnc     = 1 << 6 // EvCompare: unc-type compare
)

// Marker ids.
const (
	// MarkerRegions carries the static region count for tools that scan
	// the event stream without parsing the header table.
	MarkerRegions = 1
	// MarkerEnd terminates the stream, carrying the trailing gap of
	// plain instructions after the last control event so replay
	// accounts for every recorded instruction.
	MarkerEnd = 2
)

// Region describes one if-converted (or otherwise interesting) static
// region of the traced program, keyed by its head branch PC.
type Region struct {
	Kind     uint8
	BranchPC int
}

// Event is one decoded trace record. A single Event value is reused
// across Cursor.Next calls; fields are only meaningful for the kinds
// that set them.
type Event struct {
	Gap  uint64 // committed instructions since the previous event
	Kind uint8
	PC   int

	// EvCondBr / EvRet / EvBrInd.
	Taken bool
	// EvCondBr.
	QP          uint8  // guarding predicate register
	HasProducer bool   // guard was produced by a recorded compare
	Dist        uint64 // committed instructions since that producer

	// EvCompare.
	QPTrue  bool
	Guarded bool
	Unc     bool
	Out     isa.PredicateOutcome
	P1, P2  uint8

	// EvRet / EvBrInd.
	Target int

	// EvMarker.
	MarkerID, MarkerArg uint64
}

// Trace is one recorded committed-instruction stream.
type Trace struct {
	Name     string
	ProgHash uint64 // HashProgram of the traced binary
	Cap      uint64 // step budget at record time (0 = ran to halt)
	Steps    uint64 // committed instructions recorded
	Halted   bool   // the program halted within the budget

	CondBranches uint64 // conditional direct branches in the stream
	Compares     uint64 // compares in the stream

	Regions []Region // static region table (if-conversion markers)
	Events  []byte   // varint-encoded event stream
}

// Covers reports whether the trace is sufficient to replay a run of
// the given commit budget (0 = to halt): either the program halted
// inside the trace, or at least budget instructions were recorded.
func (t *Trace) Covers(budget uint64) bool {
	if t.Halted {
		return true
	}
	return budget > 0 && t.Steps >= budget
}

// HashProgram fingerprints a program's instruction stream (FNV-1a over
// every architecturally meaningful field), for trace/cache keying.
func HashProgram(p *program.Program) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		w(uint64(in.Op) | uint64(in.QP)<<8 | uint64(in.Rd)<<16 | uint64(in.Rs1)<<24 |
			uint64(in.Rs2)<<32 | uint64(in.P1)<<40 | uint64(in.P2)<<48 | uint64(in.Rel)<<56)
		w(uint64(in.Imm))
		w(uint64(in.CType) | uint64(uint32(in.Target))<<8)
	}
	return h.Sum64()
}

// EncodeTo serializes the trace.
func (t *Trace) EncodeTo(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(magic)
	putUvarint(&b, uint64(len(t.Name)))
	b.WriteString(t.Name)
	var raw [8]byte
	binary.LittleEndian.PutUint64(raw[:], t.ProgHash)
	b.Write(raw[:])
	putUvarint(&b, t.Cap)
	putUvarint(&b, t.Steps)
	if t.Halted {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	putUvarint(&b, t.CondBranches)
	putUvarint(&b, t.Compares)
	putUvarint(&b, uint64(len(t.Regions)))
	for _, r := range t.Regions {
		b.WriteByte(r.Kind)
		putUvarint(&b, uint64(r.BranchPC))
	}
	putUvarint(&b, uint64(len(t.Events)))
	b.Write(t.Events)
	_, err := w.Write(b.Bytes())
	return err
}

// ErrCorrupt is wrapped by every Decode failure: the input is not a
// complete trace of this format version (bad magic, a truncated
// stream, or a length or count the input does not back).
var ErrCorrupt = errors.New("trace: corrupt stream")

// Decode parses a serialized trace. Lengths and counts in the header
// are never trusted for allocation: buffers grow only as the input
// actually supplies bytes, so a corrupt header yields ErrCorrupt, not
// an out-of-memory panic.
func Decode(r io.Reader) (*Trace, error) {
	t, err := decode(newByteReader(r))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return t, nil
}

func decode(br interface {
	io.Reader
	io.ByteReader
}) (*Trace, error) {
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("short header: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("bad magic %q", head)
	}
	t := &Trace{}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("name length: %w", err)
	}
	if nameLen > 1<<16 {
		return nil, fmt.Errorf("implausible name length %d", nameLen)
	}
	name, err := readN(br, nameLen)
	if err != nil {
		return nil, fmt.Errorf("name: %w", err)
	}
	t.Name = string(name)
	var raw [8]byte
	if _, err := io.ReadFull(br, raw[:]); err != nil {
		return nil, fmt.Errorf("program hash: %w", err)
	}
	t.ProgHash = binary.LittleEndian.Uint64(raw[:])
	fields := []*uint64{&t.Cap, &t.Steps}
	for _, f := range fields {
		if *f, err = binary.ReadUvarint(br); err != nil {
			return nil, fmt.Errorf("header field: %w", err)
		}
	}
	hb, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("halted flag: %w", err)
	}
	t.Halted = hb != 0
	for _, f := range []*uint64{&t.CondBranches, &t.Compares} {
		if *f, err = binary.ReadUvarint(br); err != nil {
			return nil, fmt.Errorf("header count: %w", err)
		}
	}
	nRegions, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("region count: %w", err)
	}
	if nRegions > 1<<24 {
		return nil, fmt.Errorf("implausible region count %d", nRegions)
	}
	// Each region costs at least two input bytes, so growing by append
	// bounds the table by what the stream supplies.
	t.Regions = []Region{}
	for i := uint64(0); i < nRegions; i++ {
		k, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("region kind: %w", err)
		}
		pc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("region pc: %w", err)
		}
		t.Regions = append(t.Regions, Region{Kind: k, BranchPC: int(pc)})
	}
	evLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("event length: %w", err)
	}
	if t.Events, err = readN(br, evLen); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return t, nil
}

// readN reads exactly n bytes. The buffer grows as bytes arrive rather
// than being sized from n up front, so an oversized length costs no
// more memory than the input holds.
func readN(r io.Reader, n uint64) ([]byte, error) {
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("length %d exceeds any input", n)
	}
	var b bytes.Buffer
	got, err := io.CopyN(&b, r, int64(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("%d of %d bytes: %w", got, n, err)
	}
	return b.Bytes(), nil
}

// Cursor iterates the event stream without allocating per event.
type Cursor struct {
	buf []byte
	pos int
	err error
}

// EventCursor returns a cursor over the trace's events.
func (t *Trace) EventCursor() *Cursor { return &Cursor{buf: t.Events} }

// EventCursorAt returns a cursor positioned at a byte offset previously
// obtained from Cursor.Offset, for checkpoint-based segment replay. An
// offset outside the event stream yields a cursor whose Next reports a
// malformed stream.
func (t *Trace) EventCursorAt(offset int) *Cursor {
	c := &Cursor{buf: t.Events, pos: offset}
	if offset < 0 || offset > len(t.Events) {
		c.err = fmt.Errorf("trace: cursor offset %d outside event stream of %d bytes", offset, len(t.Events))
	}
	return c
}

// Offset returns the cursor's byte position in the event stream: the
// start of the next undecoded event. Valid as a seek target for
// EventCursorAt only at event boundaries (after a completed Next).
func (c *Cursor) Offset() int { return c.pos }

// Err reports a malformed-stream error encountered by Next.
func (c *Cursor) Err() error { return c.err }

//simlint:hotpath
func (c *Cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		c.err = fmt.Errorf("trace: truncated varint at offset %d", c.pos) //simlint:ignore hotalloc cold malformed-stream path, taken at most once per cursor
		return 0
	}
	c.pos += n
	return v
}

//simlint:hotpath
func (c *Cursor) byte() byte {
	if c.pos >= len(c.buf) {
		c.err = fmt.Errorf("trace: truncated event at offset %d", c.pos) //simlint:ignore hotalloc cold malformed-stream path, taken at most once per cursor
		return 0
	}
	b := c.buf[c.pos]
	c.pos++
	return b
}

// Next decodes the next event into ev. It returns false at end of
// stream or on a malformed stream (check Err to distinguish).
//
//simlint:hotpath
func (c *Cursor) Next(ev *Event) bool {
	if c.err != nil || c.pos >= len(c.buf) {
		return false
	}
	*ev = Event{}
	ev.Gap = c.uvarint()
	kb := c.byte()
	ev.Kind = kb & 7
	switch ev.Kind {
	case EvCondBr:
		ev.Taken = kb&flagTaken != 0
		ev.HasProducer = kb&fBrProducer != 0
		ev.PC = int(c.uvarint())
		ev.QP = c.byte()
		if ev.HasProducer {
			ev.Dist = c.uvarint()
		}
	case EvCompare:
		ev.QPTrue = kb&fCmpQPTrue != 0
		ev.Guarded = kb&fCmpGuarded != 0
		ev.Unc = kb&fCmpUnc != 0
		ob := c.byte()
		ev.Out = isa.PredicateOutcome{
			Write1: ob&1 != 0, Val1: ob&2 != 0,
			Write2: ob&4 != 0, Val2: ob&8 != 0,
		}
		ev.PC = int(c.uvarint())
		ev.P1 = c.byte()
		ev.P2 = c.byte()
	case EvCall:
		ev.PC = int(c.uvarint())
	case EvRet, EvBrInd:
		ev.Taken = kb&flagTaken != 0
		ev.PC = int(c.uvarint())
		ev.Target = int(c.uvarint())
	case EvHalt:
		ev.PC = int(c.uvarint())
	case EvMarker:
		ev.MarkerID = c.uvarint()
		ev.MarkerArg = c.uvarint()
	default:
		c.err = fmt.Errorf("trace: unknown event kind %d at offset %d", ev.Kind, c.pos) //simlint:ignore hotalloc cold malformed-stream path, taken at most once per cursor
		return false
	}
	// Predicate register numbers index the replay engines' fixed-size
	// predicate tables, so a corrupt stream must stop here, not there.
	if c.err == nil && (ev.QP >= isa.NumPred || ev.P1 >= isa.NumPred || ev.P2 >= isa.NumPred) {
		c.err = fmt.Errorf("%w: predicate register out of range before offset %d", ErrCorrupt, c.pos) //simlint:ignore hotalloc cold malformed-stream path, taken at most once per cursor
	}
	return c.err == nil
}

// NextBatch decodes up to len(buf) events into buf and returns how many
// were decoded — the batched front half of a single-pass multi-consumer
// replay, where the varint stream is decoded once into a reused event
// buffer and each consumer then walks the decoded slice. Zero-alloc:
// the caller owns buf and reuses it across calls. Returns 0 at end of
// stream or on a malformed stream (check Err to distinguish); a short
// batch (0 < n < len(buf)) means the stream ended or turned malformed
// mid-batch, and the n decoded events are still valid.
//
//simlint:hotpath
func (c *Cursor) NextBatch(buf []Event) int {
	n := 0
	for n < len(buf) && c.Next(&buf[n]) {
		n++
	}
	return n
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	b.Write(tmp[:n])
}

// byteReader adapts any reader for binary.ReadUvarint without double
// buffering when the source is already a byte reader.
type byteReaderT struct {
	r io.Reader
	b [1]byte
}

func newByteReader(r io.Reader) interface {
	io.Reader
	io.ByteReader
} {
	if br, ok := r.(interface {
		io.Reader
		io.ByteReader
	}); ok {
		return br
	}
	return &byteReaderT{r: r}
}

func (b *byteReaderT) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReaderT) ReadByte() (byte, error) {
	_, err := io.ReadFull(b.r, b.b[:])
	return b.b[0], err
}
