package graph

// MinConductanceBrute computes the exact conductance Phi of the view by
// enumerating all 2^(k-1)-1 nontrivial cuts of its k members. It returns
// the minimizing set and its conductance. For views with more than
// MaxBruteVertices members it panics: exact conductance is NP-hard and
// enumeration beyond that is a bug in the caller. An empty or singleton
// view has no nontrivial cut; the result is (nil, maxConductance).
func (s *Sub) MinConductanceBrute() (*VSet, float64) {
	members := s.members.Members()
	k := len(members)
	if k > MaxBruteVertices {
		panic("graph: MinConductanceBrute called on too-large view")
	}
	if k < 2 {
		return nil, maxConductance
	}
	best := maxConductance
	var bestSet *VSet
	// Fix member[0] out of the set to halve the enumeration (Phi is
	// symmetric under complement within the view).
	for mask := 1; mask < 1<<(k-1); mask++ {
		x := NewVSet(s.g.N())
		for i := 0; i < k-1; i++ {
			if mask&(1<<i) != 0 {
				x.Add(members[i+1])
			}
		}
		if phi := s.Conductance(x); phi < best {
			best = phi
			bestSet = x
		}
	}
	return bestSet, best
}

// MaxBruteVertices bounds the member count accepted by
// MinConductanceBrute (2^17 cuts, each O(m); fine for tests).
const MaxBruteVertices = 18

// MostBalancedSparseCutBrute finds, among all cuts of the view with
// conductance at most phi, one maximizing bal; it returns (nil, 0) if no
// such cut exists. Same size limits as MinConductanceBrute. This is the
// oracle for Theorem 3's benchmark: the "most-balanced sparse cut" S whose
// balance b the distributed algorithm must nearly match.
func (s *Sub) MostBalancedSparseCutBrute(phi float64) (*VSet, float64) {
	members := s.members.Members()
	k := len(members)
	if k > MaxBruteVertices {
		panic("graph: MostBalancedSparseCutBrute called on too-large view")
	}
	var bestSet *VSet
	bestBal := 0.0
	for mask := 1; mask < 1<<(k-1); mask++ {
		x := NewVSet(s.g.N())
		for i := 0; i < k-1; i++ {
			if mask&(1<<i) != 0 {
				x.Add(members[i+1])
			}
		}
		if s.Conductance(x) <= phi {
			if bal := s.Balance(x); bal > bestBal {
				bestBal = bal
				bestSet = x
			}
		}
	}
	return bestSet, bestBal
}

// InterComponentEdges counts usable non-loop edges whose endpoints carry
// different labels. Labels typically come from a clustering; vertices
// labeled Unreachable never contribute.
func (s *Sub) InterComponentEdges(labels []int) int64 {
	var cnt int64
	for e := 0; e < s.g.M(); e++ {
		if !s.Usable(e) {
			continue
		}
		ed := s.g.edges[e]
		if ed.U == ed.V {
			continue
		}
		lu, lv := labels[ed.U], labels[ed.V]
		if lu != Unreachable && lv != Unreachable && lu != lv {
			cnt++
		}
	}
	return cnt
}
