package perf

import (
	"strings"
	"testing"

	"ovsxdp/internal/sim"
)

func TestStageAndResultNames(t *testing.T) {
	want := map[Stage]string{
		StageRx: "rx", StageEMC: "emc", StageDpcls: "dpcls",
		StageUpcall: "upcall", StageActions: "actions", StageIdle: "idle",
	}
	for st, name := range want {
		if st.String() != name {
			t.Fatalf("Stage(%d) = %q, want %q", st, st.String(), name)
		}
	}
	if ResultEMC.String() != "emc" || ResultMegaflow.String() != "megaflow" ||
		ResultUpcall.String() != "upcall" || ResultNone.String() != "-" {
		t.Fatal("Result names wrong")
	}
}

func TestCycleAccounting(t *testing.T) {
	s := NewStats()
	s.Add(StageRx, 100)
	s.Add(StageEMC, 50)
	s.Add(StageActions, 30)
	s.Add(StageIdle, 1000)
	if s.BusyCycles() != 180 {
		t.Fatalf("busy = %d, want 180 (idle excluded)", s.BusyCycles())
	}
	if s.TotalCycles() != 1180 {
		t.Fatalf("total = %d, want 1180", s.TotalCycles())
	}
	s.Packets = 10
	if got := s.CyclesPerPacket(StageRx); got != 10 {
		t.Fatalf("rx/pkt = %v, want 10", got)
	}
	if (&Stats{}).CyclesPerPacket(StageRx) != 0 {
		t.Fatal("zero packets must not divide by zero")
	}
}

func TestBatchHistogram(t *testing.T) {
	s := NewStats()
	s.AddBatch(2)
	s.AddBatch(4)
	if m := s.BatchMean(); m != 3 {
		t.Fatalf("batch mean = %v, want 3", m)
	}
}

// AddBatch runs once per non-empty rx batch for the life of a PMD; it must
// keep O(1) state (a count and a sum), never a per-batch sample.
func TestAddBatchZeroAlloc(t *testing.T) {
	s := NewStats()
	if s.BatchMean() != 0 {
		t.Fatal("no batches must give a zero mean")
	}
	if avg := testing.AllocsPerRun(1000, func() { s.AddBatch(32) }); avg != 0 {
		t.Fatalf("AddBatch allocates %.2f times per call", avg)
	}
	s.AddBatch(1)
	if want := float64(1001*32+1) / 1002; s.BatchMean() != want {
		t.Fatalf("batch mean = %v, want %v", s.BatchMean(), want)
	}
}

func TestUpcallHistogram(t *testing.T) {
	s := NewStats()
	for i := 1; i <= 100; i++ {
		s.AddUpcall(sim.Time(i) * sim.Microsecond)
	}
	if s.Upcalls != 100 || s.UpcallCount() != 100 {
		t.Fatalf("upcalls = %d/%d, want 100", s.Upcalls, s.UpcallCount())
	}
	sum := s.UpcallLatency()
	if sum.P50 <= 0 || sum.P99 < sum.P50 {
		t.Fatalf("latency summary %+v not ordered", sum)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Add(TraceRecord{InPort: uint32(i)})
	}
	if tr.Seen() != 5 {
		t.Fatalf("seen = %d, want 5", tr.Seen())
	}
	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d, want 3", len(recs))
	}
	for i, r := range recs {
		if want := uint64(i + 2); r.Seq != want || r.InPort != uint32(want) {
			t.Fatalf("record %d = seq %d in %d, want oldest-first starting at 2", i, r.Seq, r.InPort)
		}
	}
}

func TestEnableTraceToggle(t *testing.T) {
	s := NewStats()
	if s.Tracer() != nil || s.Trace() != nil {
		t.Fatal("tracing must be off by default")
	}
	s.EnableTrace(4)
	if s.Tracer() == nil {
		t.Fatal("tracer not armed")
	}
	s.Tracer().Add(TraceRecord{InPort: 1})
	if len(s.Trace()) != 1 {
		t.Fatal("trace record lost")
	}
	s.EnableTrace(0)
	if s.Tracer() != nil {
		t.Fatal("EnableTrace(0) must disable")
	}
}

func TestFormatTrace(t *testing.T) {
	s := NewStats()
	s.EnableTrace(2)
	s.Tracer().Add(TraceRecord{InPort: 1, OutPort: 2, Result: ResultEMC,
		Start: 0, End: 700})
	out := FormatTrace([]ThreadStats{{Name: "pmd0", Stats: s}})
	for _, want := range []string{"pmd0: 1 traced", "in:1", "out:2", "via:emc"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
	off := NewStats()
	if FormatTrace([]ThreadStats{{Name: "x", Stats: off}}) != "tracing not enabled\n" {
		t.Fatal("tracing-off sentinel wrong")
	}
}
