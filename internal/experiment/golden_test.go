package experiment

import (
	"reflect"
	"testing"
	"time"
)

// goldenScenario is one fixed configuration of the golden/determinism suite.
type goldenScenario struct {
	name string
	s    Scenario
}

// goldenScenarios covers the simulator's behavioral surface with small runs:
// the default mesh, a denser mesh, persistency mode under heavy failures,
// bursty (Gilbert–Elliott) failures, round-trip ACK timing, congested links
// whose transmit queues outlast the ACK wait (the congestion extension's
// 25 frames/s point), and two transmissions per link under heavy loss.
func goldenScenarios() []goldenScenario {
	base := DefaultScenario()
	base.Duration = 5 * time.Second
	base.Drain = 3 * time.Second
	base.Topologies = 1
	base.Pf = 0.06

	mesh := base

	deg5 := base
	deg5.Degree = 5

	persistent := base
	persistent.Degree = 3
	persistent.Pf = 0.2
	persistent.Persistent = true

	burst := base
	burst.Degree = 5
	burst.MeanFailureBurst = 4

	rtt := base
	rtt.RoundTripAcks = true

	congested := base
	congested.Degree = 5
	congested.Pf = 0
	congested.PublishInterval = 100 * time.Millisecond
	congested.QueueCapacity = 32
	congested.LinkBandwidth = 25
	congested.MaxLifetime = 2 * time.Second

	m2 := base
	m2.M = 2
	m2.Pl = 0.05

	return []goldenScenario{
		{"mesh", mesh},
		{"deg5", deg5},
		{"persistent", persistent},
		{"burst", burst},
		{"rtt", rtt},
		{"congested", congested},
		{"m2", m2},
	}
}

// goldenScalars is the scalar fingerprint of one run:
// expected, delivered, on-time, data transmissions, drops, published.
type goldenScalars struct {
	Expected          int
	Delivered         int
	OnTime            int
	DataTransmissions uint64
	Drops             uint64
	Published         uint64
}

// goldenWant holds the seed-for-seed expected results, captured from the
// pre-optimization simulator. The allocation-free refactor (pooled DES
// events, dense link tables, pooled forwarding state) must reproduce every
// value bit-for-bit: any drift means the refactor changed event ordering,
// RNG draw order, or protocol behavior rather than just performance.
var goldenWant = map[string]map[string]goldenScalars{
	"mesh": {
		"DCRD":      {310, 310, 306, 439, 0, 50},
		"R-Tree":    {310, 284, 284, 310, 26, 50},
		"D-Tree":    {310, 273, 273, 371, 37, 50},
		"ORACLE":    {310, 310, 310, 388, 0, 50},
		"Multipath": {310, 306, 306, 989, 81, 50},
	},
	"deg5": {
		"DCRD":      {460, 459, 448, 720, 1, 50},
		"R-Tree":    {460, 421, 421, 579, 39, 50},
		"D-Tree":    {460, 420, 420, 570, 40, 50},
		"ORACLE":    {460, 460, 459, 598, 0, 50},
		"Multipath": {460, 456, 456, 2190, 91, 50},
	},
	"persistent": {
		"DCRD":      {340, 340, 263, 1723, 0, 50},
		"R-Tree":    {340, 193, 193, 422, 147, 50},
		"D-Tree":    {340, 192, 192, 440, 148, 50},
		"ORACLE":    {340, 340, 319, 627, 0, 50},
		"Multipath": {340, 262, 259, 1717, 350, 50},
	},
	"burst": {
		"DCRD":      {460, 460, 454, 745, 0, 50},
		"R-Tree":    {460, 409, 409, 580, 51, 50},
		"D-Tree":    {460, 418, 418, 580, 42, 50},
		"ORACLE":    {460, 460, 460, 602, 0, 50},
		"Multipath": {460, 460, 460, 2217, 106, 50},
	},
	"rtt": {
		"DCRD":      {310, 310, 295, 439, 0, 50},
		"R-Tree":    {310, 284, 284, 310, 26, 50},
		"D-Tree":    {310, 273, 273, 371, 37, 50},
		"ORACLE":    {310, 310, 310, 388, 0, 50},
		"Multipath": {310, 306, 306, 989, 81, 50},
	},
	// The baseline rows predate running the trees and Multipath on the
	// Algorithm-2 engines. DCRD's row postdates the shell giving netsim its
	// own frame copies: before that, a frame still queued when its flight
	// resolved was recycled under the network, and this run livelocked.
	"congested": {
		"DCRD":      {4600, 2645, 309, 27743, 15369, 500},
		"R-Tree":    {4600, 4483, 1815, 5925, 2115, 500},
		"D-Tree":    {4600, 4101, 1283, 5547, 2856, 500},
		"ORACLE":    {4600, 3081, 1314, 20625, 3820, 500},
		"Multipath": {4600, 2911, 174, 14420, 11246, 500},
	},
	"m2": {
		"DCRD":      {310, 310, 292, 530, 0, 50},
		"R-Tree":    {310, 281, 280, 369, 30, 50},
		"D-Tree":    {310, 272, 272, 436, 41, 50},
		"ORACLE":    {310, 310, 310, 445, 0, 50},
		"Multipath": {310, 306, 306, 1157, 97, 50},
	},
}

// TestGoldenResults locks every approach's scalar results to the values the
// simulator produced before the allocation-free hot-path refactor, proving
// the optimization is behavior-preserving seed for seed.
func TestGoldenResults(t *testing.T) {
	for _, sc := range goldenScenarios() {
		for _, a := range AllApproaches() {
			res, err := RunOne(sc.s, a, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, a, err)
			}
			got := goldenScalars{
				Expected:          res.Expected,
				Delivered:         res.Delivered,
				OnTime:            res.OnTime,
				DataTransmissions: res.DataTransmissions,
				Drops:             res.Drops,
				Published:         res.Published,
			}
			want := goldenWant[sc.name][a.String()]
			if got != want {
				t.Errorf("%s/%s: result drifted from golden values:\n got %+v\nwant %+v",
					sc.name, a, got, want)
			}
		}
	}
}

// TestRunOneDeterministic runs every approach twice with the same seed and
// requires byte-identical Results — including the Latencies and LateFactors
// slices, which Collector.Result emits in (packet, node) order precisely so
// this comparison is meaningful.
func TestRunOneDeterministic(t *testing.T) {
	for _, sc := range goldenScenarios() {
		for _, a := range AllApproaches() {
			first, err := RunOne(sc.s, a, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", sc.name, a, err)
			}
			second, err := RunOne(sc.s, a, 0)
			if err != nil {
				t.Fatalf("%s/%s (rerun): %v", sc.name, a, err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("%s/%s: same seed produced different results:\n first %+v\nsecond %+v",
					sc.name, a, first, second)
			}
		}
	}
}
