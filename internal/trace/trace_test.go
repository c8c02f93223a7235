package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/emulator"
	"repro/internal/isa"
)

func recordBench(t *testing.T, name string, steps uint64) *Trace {
	t.Helper()
	spec, err := bench.Find(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Record(context.Background(), bench.Build(spec), Options{MaxSteps: steps})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRecordAccountsEveryInstruction checks that the gaps and events of
// a recorded stream sum to exactly the emulated step count, and that
// the header counts match the stream.
func TestRecordAccountsEveryInstruction(t *testing.T) {
	tr := recordBench(t, "gzip", 50000)
	if tr.Steps != 50000 {
		t.Fatalf("recorded %d steps, want 50000", tr.Steps)
	}
	var total, branches, compares uint64
	cur := tr.EventCursor()
	var ev Event
	for cur.Next(&ev) {
		total += ev.Gap
		if ev.Kind != EvMarker {
			total++
		}
		switch ev.Kind {
		case EvCondBr:
			branches++
		case EvCompare:
			compares++
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if total != tr.Steps {
		t.Fatalf("events+gaps account for %d instructions, recorded %d", total, tr.Steps)
	}
	if branches != tr.CondBranches || compares != tr.Compares {
		t.Fatalf("stream has %d branches / %d compares, header says %d / %d",
			branches, compares, tr.CondBranches, tr.Compares)
	}
	if branches == 0 || compares == 0 {
		t.Fatal("suspiciously empty trace")
	}
}

// TestRecordMatchesEmulator spot-checks recorded branch outcomes
// against a fresh emulator run of the same program.
func TestRecordMatchesEmulator(t *testing.T) {
	spec, err := bench.Find("vpr")
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Build(spec)
	tr, err := Record(context.Background(), p, Options{MaxSteps: 20000})
	if err != nil {
		t.Fatal(err)
	}
	em := emulator.New(p)
	type key struct {
		step uint64
		pc   int
	}
	taken := map[key]bool{}
	var step uint64
	em.StepHook = func(info emulator.StepInfo) {
		if info.IsBranch && p.At(info.PC).IsConditional() && p.At(info.PC).Op.String() == "br" {
			taken[key{step, info.PC}] = info.Taken
		}
		step++
	}
	em.Run(20000)

	cur := tr.EventCursor()
	var ev Event
	var pos uint64
	for cur.Next(&ev) {
		pos += ev.Gap
		if ev.Kind == EvMarker {
			continue
		}
		if ev.Kind == EvCondBr {
			want, ok := taken[key{pos, ev.PC}]
			if !ok {
				t.Fatalf("trace has cond branch at step %d pc %d; emulator does not", pos, ev.PC)
			}
			if want != ev.Taken {
				t.Fatalf("step %d pc %d: trace taken=%v, emulator %v", pos, ev.PC, ev.Taken, want)
			}
		}
		pos++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := recordBench(t, "twolf", 30000)
	tr.Regions = []Region{{Kind: 1, BranchPC: 42}, {Kind: 0, BranchPC: 7}}
	var buf bytes.Buffer
	if err := tr.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.ProgHash != tr.ProgHash || got.Cap != tr.Cap ||
		got.Steps != tr.Steps || got.Halted != tr.Halted ||
		got.CondBranches != tr.CondBranches || got.Compares != tr.Compares {
		t.Fatalf("header mismatch: %+v vs %+v", got, tr)
	}
	if len(got.Regions) != 2 || got.Regions[0] != tr.Regions[0] || got.Regions[1] != tr.Regions[1] {
		t.Fatalf("region table mismatch: %+v", got.Regions)
	}
	if !bytes.Equal(got.Events, tr.Events) {
		t.Fatal("event stream mismatch after round trip")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("want error for bad magic")
	}
	tr := recordBench(t, "gzip", 1000)
	var buf bytes.Buffer
	if err := tr.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("want error for truncated stream")
	}
}

// craftedTrace is a well-formed trace header (empty name, no counts)
// declaring nRegions regions and an event stream of evLen bytes,
// followed by only the given tail bytes.
func craftedTrace(nRegions, evLen uint64, tail ...byte) []byte {
	b := []byte(magic)
	b = binary.AppendUvarint(b, 0)    // name length
	b = append(b, make([]byte, 8)...) // program hash
	b = append(b, 0, 0, 0, 0, 0)      // cap, steps, halted, cond branches, compares
	b = binary.AppendUvarint(b, nRegions)
	if nRegions == 0 {
		b = binary.AppendUvarint(b, evLen)
	}
	return append(b, tail...)
}

// TestDecodeRejectsOversizedLengths feeds Decode headers whose lengths
// and counts the input cannot back, plus truncations of a real trace:
// each must fail with ErrCorrupt, never panic or allocate the declared
// size.
func TestDecodeRejectsOversizedLengths(t *testing.T) {
	tr := recordBench(t, "gzip", 1000)
	var buf bytes.Buffer
	if err := tr.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cases := map[string][]byte{
		"event length 1<<62":  craftedTrace(0, 1<<62, 1, 2, 3),
		"event length maxu64": craftedTrace(0, math.MaxUint64),
		"region count 1<<62":  craftedTrace(1<<62, 0, 1, 7),
		"region count 1<<24":  craftedTrace(1<<24-1, 0),
		"truncated header":    full[:len(magic)+3],
		"truncated events":    full[:len(full)-1],
	}
	for name, in := range cases {
		if _, err := Decode(bytes.NewReader(in)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode error = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := Decode(bytes.NewReader(full)); err != nil {
		t.Fatalf("intact stream: %v", err)
	}
}

// TestCursorRejectsOutOfRangePredicate corrupts a conditional branch's
// guard register: the cursor must stop with ErrCorrupt instead of
// handing replay an index past its predicate tables.
func TestCursorRejectsOutOfRangePredicate(t *testing.T) {
	var b bytes.Buffer
	b.WriteByte(0)                     // gap
	b.WriteByte(EvCondBr)              // kind, no flags
	b.WriteByte(5)                     // pc
	b.WriteByte(byte(isa.NumPred) + 3) // guard predicate
	cur := (&Trace{Events: b.Bytes()}).EventCursor()
	var ev Event
	if cur.Next(&ev) {
		t.Fatalf("cursor accepted guard p%d", ev.QP)
	}
	if !errors.Is(cur.Err(), ErrCorrupt) {
		t.Fatalf("cursor error = %v, want ErrCorrupt", cur.Err())
	}
}

// TestNextBatchMatchesSequentialNext pins the batched decode path of
// the single-pass replay engine: whatever the buffer size, NextBatch
// must yield exactly the event sequence of one-at-a-time Next calls,
// and report the same terminal state.
func TestNextBatchMatchesSequentialNext(t *testing.T) {
	tr := recordBench(t, "gzip", 20000)
	var want []Event
	seq := tr.EventCursor()
	var ev Event
	for seq.Next(&ev) {
		want = append(want, ev)
	}
	if err := seq.Err(); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 256, len(want), len(want) + 100} {
		cur := tr.EventCursor()
		buf := make([]Event, size)
		var got []Event
		for {
			n := cur.NextBatch(buf)
			if n == 0 {
				break
			}
			got = append(got, buf[:n]...)
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if len(got) != len(want) {
			t.Fatalf("size %d: decoded %d events, want %d", size, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("size %d: event %d = %+v, want %+v", size, i, got[i], want[i])
			}
		}
	}

	// A malformed stream surfaces through Err after a short batch.
	bad := &Trace{Events: append(append([]byte(nil), tr.Events...), 0x05, 0xFF)}
	cur := bad.EventCursor()
	buf := make([]Event, 64)
	for cur.NextBatch(buf) > 0 {
	}
	if cur.Err() == nil {
		t.Fatal("want decode error from truncated tail")
	}
}

func TestRecordCancellation(t *testing.T) {
	spec, err := bench.Find("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Build(spec)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Record(ctx, p, Options{}); err == nil {
		t.Fatal("want context error from cancelled recording")
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err = Record(ctx2, p, Options{}) // unbounded: only the deadline stops it
	if err == nil {
		t.Fatal("want deadline error from unbounded recording")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; recording does not honor ctx promptly", elapsed)
	}
}

func TestCoversAndCache(t *testing.T) {
	tr := recordBench(t, "gzip", 5000)
	if !tr.Covers(5000) || !tr.Covers(100) {
		t.Fatal("trace should cover budgets within its steps")
	}
	if tr.Covers(5001) || tr.Covers(0) {
		t.Fatal("non-halted trace cannot cover a larger or unbounded budget")
	}

	dir := t.TempDir()
	key := Key("spec", "gzip", "test")
	if got, err := Load(dir, key); err != nil || got != nil {
		t.Fatalf("empty cache: got %v, %v", got, err)
	}
	if err := Store(dir, key, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, key)
	if err != nil || got == nil {
		t.Fatalf("cache load: %v, %v", got, err)
	}
	if got.ProgHash != tr.ProgHash || got.Steps != tr.Steps {
		t.Fatal("cache round trip corrupted the trace")
	}
	if Key("spec", "gzip", "test2") == key {
		t.Fatal("different parts must produce different keys")
	}
}
