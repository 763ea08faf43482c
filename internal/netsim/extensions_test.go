package netsim

import (
	"math"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/topology"
)

func TestInstantControlZeroDelay(t *testing.T) {
	g := pairGraph(t, 30*time.Millisecond)
	sim, n := newNet(t, g, Config{
		FailureEpoch:    time.Second,
		MonitorInterval: time.Minute,
		InstantControl:  true,
	})
	var dataAt, ctrlAt time.Duration = -1, -1
	n.SetHandler(1, func(f Frame) {
		switch f.Kind {
		case Data:
			dataAt = sim.Now()
		case Control:
			ctrlAt = sim.Now()
		}
	})
	if err := n.Send(Frame{ID: 1, From: 0, To: 1, Kind: Data}); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Frame{ID: 2, From: 0, To: 1, Kind: Control}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if ctrlAt != 0 {
		t.Errorf("control frame arrived at %v, want 0 (instant)", ctrlAt)
	}
	if dataAt != 30*time.Millisecond {
		t.Errorf("data frame arrived at %v, want 30ms", dataAt)
	}
}

func TestInstantControlStillLossy(t *testing.T) {
	g := pairGraph(t, time.Millisecond)
	sim, n := newNet(t, g, Config{
		LossRate:        1,
		FailureEpoch:    time.Second,
		MonitorInterval: time.Minute,
		InstantControl:  true,
	})
	got := 0
	n.SetHandler(1, func(Frame) { got++ })
	if err := n.Send(Frame{ID: 1, From: 0, To: 1, Kind: Control}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if got != 0 {
		t.Error("instant control frame bypassed the loss process")
	}
}

func TestAckWaitModels(t *testing.T) {
	g := pairGraph(t, 25*time.Millisecond)
	_, physical := newNet(t, g, Config{FailureEpoch: time.Second, MonitorInterval: time.Minute})
	if w, ok := physical.AckWait(0, 1); !ok || w != 50*time.Millisecond {
		t.Errorf("physical AckWait = %v, %v; want 50ms", w, ok)
	}
	_, instant := newNet(t, g, Config{
		FailureEpoch: time.Second, MonitorInterval: time.Minute, InstantControl: true,
	})
	if w, ok := instant.AckWait(0, 1); !ok || w != 25*time.Millisecond {
		t.Errorf("instant AckWait = %v, %v; want 25ms", w, ok)
	}
	if _, ok := instant.AckWait(0, 5); ok {
		t.Error("AckWait for a missing link should be !ok")
	}
}

func TestNodeFailureTakesDownIncidentLinks(t *testing.T) {
	g := topology.NewGraph(3)
	for _, l := range [][2]int{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddLink(l[0], l[1], time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	_, n := newNet(t, g, Config{
		NodeFailureProb: 0.5,
		FailureEpoch:    time.Second,
		MonitorInterval: time.Minute,
	}, 31)
	foundFailure := false
	for e := 0; e < 200; e++ {
		at := time.Duration(e) * time.Second
		for u := 0; u < 3; u++ {
			if !n.nodeFailedAt(u, at) {
				continue
			}
			foundFailure = true
			for _, edge := range g.Neighbors(u) {
				if n.Alive(u, edge.To, at) {
					t.Fatalf("epoch %d: node %d down but link (%d,%d) alive", e, u, u, edge.To)
				}
			}
		}
	}
	if !foundFailure {
		t.Error("no node failures observed at Pn=0.5 over 200 epochs")
	}
}

func TestNodeFailureProbabilityStatistical(t *testing.T) {
	g := pairGraph(t, time.Millisecond)
	_, n := newNet(t, g, Config{
		NodeFailureProb: 0.05,
		FailureEpoch:    time.Second,
		MonitorInterval: time.Minute,
	}, 77)
	failed := 0
	const epochs = 20000
	for e := 0; e < epochs; e++ {
		if n.nodeFailedAt(0, time.Duration(e)*time.Second) {
			failed++
		}
	}
	got := float64(failed) / epochs
	if math.Abs(got-0.05) > 0.01 {
		t.Errorf("node failure fraction = %v, want ~0.05", got)
	}
}

func TestNodeFailureZeroNeverFails(t *testing.T) {
	g := pairGraph(t, time.Millisecond)
	_, n := newNet(t, g, Config{FailureEpoch: time.Second, MonitorInterval: time.Minute})
	for e := 0; e < 100; e++ {
		if n.nodeFailedAt(0, time.Duration(e)*time.Second) {
			t.Fatal("node failed with Pn=0")
		}
	}
}

func TestNodeFailureConfigValidation(t *testing.T) {
	g := pairGraph(t, time.Millisecond)
	sim := des.New(1)
	if _, err := New(sim, g, Config{
		NodeFailureProb: -0.1, FailureEpoch: time.Second, MonitorInterval: time.Minute,
	}, 1); err == nil {
		t.Error("negative NodeFailureProb accepted")
	}
}

func TestForceDownAndRestore(t *testing.T) {
	g := pairGraph(t, time.Millisecond)
	_, n := newNet(t, g, Config{FailureEpoch: time.Second, MonitorInterval: time.Minute})
	if !n.Alive(0, 1, 0) {
		t.Fatal("link dead before ForceDown")
	}
	if err := n.ForceDown(0, 1); err != nil {
		t.Fatal(err)
	}
	if n.Alive(0, 1, 0) || n.Alive(1, 0, 5*time.Second) {
		t.Error("forced-down link reported alive")
	}
	if err := n.Restore(1, 0); err != nil {
		t.Fatal(err)
	}
	if !n.Alive(0, 1, 0) {
		t.Error("restored link reported dead")
	}
	if err := n.ForceDown(0, 2); err == nil {
		t.Error("ForceDown of missing link accepted")
	}
	if err := n.Restore(0, 2); err == nil {
		t.Error("Restore of missing link accepted")
	}
}
