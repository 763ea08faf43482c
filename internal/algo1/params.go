// Package algo1 is the transport-agnostic DCRD control plane: the paper's
// <d, r> parameter algebra (Eq. 1–3), the Theorem-1 sending-list ordering,
// the per-pair Algorithm-1 fixpoint (BuildTable / BuildFromSnapshot) and
// the Driver that keeps a pair set's route tables a pure function of the
// current link estimates.
//
// Like internal/algo2 for the data plane, this package never touches a
// clock, a socket or a simulator event queue. Everything environmental is
// injected through the small Deps interface: the discrete-event simulator
// (internal/core.Router) feeds it netsim's monitoring windows, and the
// live broker (internal/broker) feeds it gossiped link state measured
// from real TCP traffic. Both shells run the exact same fixpoint
// code, which is what lets a differential test demand bit-identical tables
// from both.
package algo1

import (
	"math"
	"time"
)

// Infinite marks an unavailable expected delay (packet cannot be delivered).
const Infinite = time.Duration(math.MaxInt64)

// DR is the paper's <d, r> parameter pair for a node (or for reaching the
// subscriber via one particular neighbor): D is the expected delay until the
// packet reaches the subscriber conditioned on eventual delivery, and R is
// the probability of that delivery.
type DR struct {
	D time.Duration
	R float64
}

// Unreachable is the <d, r> value of a node that cannot reach the
// subscriber at all.
func Unreachable() DR { return DR{D: Infinite, R: 0} }

// Reachable reports whether the parameters describe a node with a usable
// route (positive delivery probability and finite expected delay).
func (p DR) Reachable() bool { return p.R > 0 && p.D != Infinite }

// Ratio returns d/r, the Theorem-1 sort key, in nanoseconds. Unreachable
// entries sort last (+Inf).
func (p DR) Ratio() float64 {
	if !p.Reachable() {
		return math.Inf(1)
	}
	return float64(p.D) / p.R
}

// LinkStats lifts single-transmission link statistics <alpha, gamma> to the
// m-transmission statistics of the paper's Eq. (1):
//
//	alpha_m = sum_{k=1..m} k*alpha*gamma*(1-gamma)^(k-1) / (1-(1-gamma)^m)
//	gamma_m = 1 - (1-gamma)^m
//
// alpha_m is conditional on delivery within m transmissions. m < 1 is
// treated as 1. A gamma of 0 yields an unreachable link.
func LinkStats(alpha time.Duration, gamma float64, m int) DR {
	if m < 1 {
		m = 1
	}
	if gamma <= 0 {
		return Unreachable()
	}
	if gamma > 1 {
		gamma = 1
	}
	q := 1 - gamma
	var num float64 // in units of alpha
	qk := 1.0       // (1-gamma)^(k-1)
	for k := 1; k <= m; k++ {
		num += float64(k) * gamma * qk
		qk *= q
	}
	gammaM := 1 - math.Pow(q, float64(m))
	if gammaM <= 0 {
		return Unreachable()
	}
	return DR{
		D: time.Duration(num / gammaM * float64(alpha)),
		R: gammaM,
	}
}

// Via combines a link's m-transmission statistics with the neighbor's own
// <d, r> per Eq. (2): the expected delay to reach the subscriber via that
// neighbor is the link delay plus the neighbor's expected delay, and the
// delivery ratio is the product of the link's and the neighbor's.
func Via(link, neighbor DR) DR {
	if !link.Reachable() || !neighbor.Reachable() {
		return Unreachable()
	}
	return DR{
		D: link.D + neighbor.D,
		R: link.R * neighbor.R,
	}
}

// Combine evaluates Eq. (3) over an ordered sending list whose i-th entry is
// <d_i^X, r_i^X> (the Via result for the i-th neighbor): the node tries
// neighbor 1 first, then 2, and so on, so the expected delay conditioned on
// delivery is
//
//	d_X = sum_i (sum_{j<=i} d_j^X) * (r_i^X * prod_{j<i}(1-r_j^X)) / r_X
//	r_X = 1 - prod_i (1-r_i^X)
//
// Entries that are not Reachable contribute nothing. An empty (or all
// unreachable) list yields Unreachable.
func Combine(ordered []DR) DR {
	var (
		num     float64 // nanoseconds, probability-weighted cumulative delay
		prefix  float64 // sum_{j<=i} d_j^X in nanoseconds
		probRem = 1.0   // prod_{j<i} (1-r_j^X)
	)
	any := false
	for _, e := range ordered {
		if !e.Reachable() {
			continue
		}
		any = true
		prefix += float64(e.D)
		num += prefix * e.R * probRem
		probRem *= 1 - e.R
	}
	if !any {
		return Unreachable()
	}
	rX := 1 - probRem
	if rX <= 0 {
		return Unreachable()
	}
	return DR{
		D: time.Duration(num / rX),
		R: rX,
	}
}

// SortByRatio orders entries by increasing d/r — the Theorem-1 ordering
// proven to minimize the expected delay d_X of Eq. (3). Ties break on the
// associated neighbor IDs for determinism (the (ratio, id) key is a total
// order, so the result is unique). Entries and ids are parallel slices
// sorted in place; sending lists are degree-sized, so an allocation-free
// insertion sort beats boxing into the sort package.
func SortByRatio(entries []DR, ids []int) {
	for i := 1; i < len(entries); i++ {
		e, id := entries[i], ids[i]
		r := e.Ratio()
		j := i
		for j > 0 {
			rj := entries[j-1].Ratio()
			if rj < r || (rj == r && ids[j-1] < id) {
				break
			}
			entries[j], ids[j] = entries[j-1], ids[j-1]
			j--
		}
		entries[j], ids[j] = e, id
	}
}
