package des

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	sim := New(1)
	var order []int
	sim.At(30*time.Millisecond, func() { order = append(order, 3) })
	sim.At(10*time.Millisecond, func() { order = append(order, 1) })
	sim.At(20*time.Millisecond, func() { order = append(order, 2) })
	sim.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if sim.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", sim.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	sim := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		sim.At(time.Second, func() { order = append(order, i) })
	}
	sim.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", order)
		}
	}
}

func TestAfterRelativeToNow(t *testing.T) {
	sim := New(1)
	var fired time.Duration
	sim.At(time.Second, func() {
		sim.After(500*time.Millisecond, func() { fired = sim.Now() })
	})
	sim.Run()
	if fired != 1500*time.Millisecond {
		t.Errorf("nested After fired at %v, want 1.5s", fired)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	sim := New(1)
	ran := false
	sim.At(time.Second, func() {
		sim.At(0, func() { ran = true }) // in the past; must still run
	})
	sim.Run()
	if !ran {
		t.Error("event scheduled in the past never ran")
	}
	if sim.Now() != time.Second {
		t.Errorf("clock went backwards: Now = %v", sim.Now())
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	sim := New(1)
	ran := false
	sim.After(-time.Second, func() { ran = true })
	sim.Run()
	if !ran {
		t.Error("negative After never ran")
	}
	if sim.Now() != 0 {
		t.Errorf("Now = %v, want 0", sim.Now())
	}
}

func TestCancel(t *testing.T) {
	sim := New(1)
	ran := false
	ev := sim.At(time.Second, func() { ran = true })
	if !ev.Cancel() {
		t.Error("first Cancel should report true")
	}
	if ev.Cancel() {
		t.Error("second Cancel should report false")
	}
	sim.Run()
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestCancelAfterFire(t *testing.T) {
	sim := New(1)
	ev := sim.At(0, func() {})
	sim.Run()
	if ev.Cancel() {
		t.Error("Cancel after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	sim := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		sim.At(d, func() { fired = append(fired, d) })
	}
	sim.RunUntil(2500 * time.Millisecond)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if sim.Now() != 2500*time.Millisecond {
		t.Errorf("Now = %v, want 2.5s", sim.Now())
	}
	if sim.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", sim.Pending())
	}
	sim.RunUntil(10 * time.Second)
	if len(fired) != 4 {
		t.Errorf("fired %d events after second RunUntil, want 4", len(fired))
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	sim := New(1)
	ran := false
	sim.At(time.Second, func() { ran = true })
	sim.RunUntil(time.Second)
	if !ran {
		t.Error("event exactly at the boundary must fire")
	}
}

func TestStepReturnsFalseOnEmpty(t *testing.T) {
	sim := New(1)
	if sim.Step() {
		t.Error("Step on empty queue should report false")
	}
	ev := sim.At(time.Second, func() {})
	ev.Cancel()
	if sim.Step() {
		t.Error("Step over only-cancelled events should report false")
	}
}

func TestProcessedCount(t *testing.T) {
	sim := New(1)
	for i := 0; i < 5; i++ {
		sim.At(time.Duration(i)*time.Millisecond, func() {})
	}
	sim.At(time.Second, func() {}).Cancel()
	sim.Run()
	if sim.Processed() != 5 {
		t.Errorf("Processed = %d, want 5", sim.Processed())
	}
}

func TestDeterministicRand(t *testing.T) {
	draw := func() []float64 {
		sim := New(42)
		out := make([]float64, 10)
		for i := range out {
			out[i] = sim.Rand().Float64()
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	other := New(43)
	same := true
	for i := range a {
		if other.Rand().Float64() != a[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestEventTime(t *testing.T) {
	sim := New(1)
	ev := sim.At(7*time.Second, func() {})
	if ev.Time() != 7*time.Second {
		t.Errorf("Time = %v, want 7s", ev.Time())
	}
}

// Property: for any multiset of schedule times, execution visits them in
// sorted order and the clock never moves backwards.
func TestMonotoneClockProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		sim := New(7)
		var fired []time.Duration
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			sim.At(d, func() { fired = append(fired, sim.Now()) })
		}
		sim.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestZeroEventIDCancel(t *testing.T) {
	var id EventID
	if id.Cancel() {
		t.Error("zero EventID Cancel should report false")
	}
	if id.Time() != 0 {
		t.Error("zero EventID Time should be 0")
	}
}

func TestStaleHandleCannotTouchRecycledEvent(t *testing.T) {
	sim := New(1)
	stale := sim.At(time.Millisecond, func() {})
	sim.Run()
	// The event struct is now on the free list; the next schedule reuses it.
	ran := false
	fresh := sim.At(time.Second, func() { ran = true })
	if stale.Cancel() {
		t.Error("stale handle cancelled a recycled event")
	}
	sim.Run()
	if !ran {
		t.Error("recycled event did not fire after stale Cancel attempt")
	}
	if fresh.Cancel() {
		t.Error("Cancel after fire should report false on the fresh handle")
	}
}

func TestAtFuncPassesArgument(t *testing.T) {
	sim := New(1)
	type payload struct{ hits int }
	p := &payload{}
	sim.AtFunc(time.Millisecond, func(a any) { a.(*payload).hits++ }, p)
	sim.AfterFunc(time.Millisecond, func(a any) { a.(*payload).hits += 10 }, p)
	sim.Run()
	if p.hits != 11 {
		t.Errorf("hits = %d, want 11", p.hits)
	}
}

func TestCancelAtFunc(t *testing.T) {
	sim := New(1)
	ran := false
	id := sim.AtFunc(time.Second, func(any) { ran = true }, nil)
	if !id.Cancel() {
		t.Error("first Cancel should report true")
	}
	sim.Run()
	if ran {
		t.Error("cancelled AtFunc event ran")
	}
}

// TestSteadyStateZeroAlloc locks in the free-list contract: once the heap
// and pool reach their high-water mark, schedule/fire cycles allocate
// nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	sim := New(1)
	tick := func(any) {}
	// Warm up the pool and heap.
	for i := 0; i < 256; i++ {
		sim.AfterFunc(time.Millisecond, tick, nil)
	}
	sim.Run()
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			sim.AfterFunc(time.Duration(i%7)*time.Millisecond, tick, nil)
		}
		sim.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule/run allocated %.1f times per cycle, want 0", allocs)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := New(uint64(i))
		for j := 0; j < 1000; j++ {
			sim.At(time.Duration(j%97)*time.Millisecond, func() {})
		}
		sim.Run()
	}
}

// BenchmarkSteadyStateScheduleFire measures the pooled hot path: one
// schedule + fire cycle with a warm free list. Expect 0 allocs/op.
func BenchmarkSteadyStateScheduleFire(b *testing.B) {
	sim := New(1)
	tick := func(any) {}
	for i := 0; i < 1024; i++ {
		sim.AfterFunc(time.Duration(i%13)*time.Millisecond, tick, nil)
	}
	sim.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.AfterFunc(time.Duration(i%13)*time.Millisecond, tick, nil)
		sim.Step()
	}
}

// A cancelled event due by t sits above a live one scheduled after t:
// RunUntil(t) must drop the first and leave the second alone. Built on Step
// it ran the 5 s event at RunUntil(2 s) and left Now at 5 s.
func TestRunUntilDoesNotOvershootPastCancelled(t *testing.T) {
	sim := New(1)
	ran := false
	sim.At(time.Second, func() {}).Cancel()
	sim.At(5*time.Second, func() { ran = true })
	sim.RunUntil(2 * time.Second)
	if ran {
		t.Error("RunUntil(2s) ran the event scheduled at 5s")
	}
	if sim.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", sim.Now())
	}
	if sim.Pending() != 1 {
		t.Errorf("Pending = %d, want the 5s event only", sim.Pending())
	}
	sim.Run()
	if !ran || sim.Now() != 5*time.Second {
		t.Errorf("after Run: ran=%v Now=%v, want true 5s", ran, sim.Now())
	}
}

func TestStepUntilRunsOneDueEventInFIFOOrder(t *testing.T) {
	sim := New(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		id := sim.At(time.Second, func() { order = append(order, i) })
		if i == 1 {
			id.Cancel()
		}
	}
	sim.At(2*time.Second, func() { order = append(order, 9) })
	if sim.StepUntil(time.Second - 1) {
		t.Fatal("StepUntil ran an event before its time")
	}
	for n := 1; n <= 3; n++ {
		if !sim.StepUntil(time.Second) || len(order) != n {
			t.Fatalf("step %d: order = %v, want one more event per step", n, order)
		}
	}
	if sim.StepUntil(time.Second) {
		t.Fatal("StepUntil(1s) ran the event scheduled at 2s")
	}
	if want := []int{0, 2, 3}; order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("equal-time order = %v, want %v", order, want)
	}
	if sim.Now() != time.Second {
		t.Errorf("Now = %v, want 1s: StepUntil moves the clock only to an executed event", sim.Now())
	}
}

func TestNextAtPrunesCancelledTops(t *testing.T) {
	sim := New(1)
	if _, ok := sim.NextAt(); ok {
		t.Error("NextAt on an empty queue reported an event")
	}
	a := sim.At(time.Second, func() {})
	b := sim.At(2*time.Second, func() {})
	live := sim.At(3*time.Second, func() {})
	buried := sim.At(4*time.Second, func() {})
	a.Cancel()
	b.Cancel()
	buried.Cancel()
	if at, ok := sim.NextAt(); !ok || at != 3*time.Second {
		t.Errorf("NextAt = %v, %v, want 3s, true", at, ok)
	}
	if sim.Pending() != 2 {
		t.Errorf("Pending = %d, want 2: cancelled tops dropped, the one under a live event kept", sim.Pending())
	}
	if sim.Now() != 0 {
		t.Errorf("NextAt moved the clock to %v", sim.Now())
	}
	live.Cancel()
	if _, ok := sim.NextAt(); ok || sim.Pending() != 0 {
		t.Errorf("all cancelled: NextAt ok=%v Pending=%d, want false 0", ok, sim.Pending())
	}
}
