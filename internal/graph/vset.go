package graph

// VSet is a mutable set of vertices over a fixed universe [0, n).
// The zero value is not usable; construct with NewVSet.
type VSet struct {
	member []bool
	count  int
}

// NewVSet returns an empty set over universe size n.
func NewVSet(n int) *VSet {
	return &VSet{member: make([]bool, n)}
}

// FullVSet returns the set {0, ..., n-1}.
func FullVSet(n int) *VSet {
	s := NewVSet(n)
	for v := 0; v < n; v++ {
		s.member[v] = true
	}
	s.count = n
	return s
}

// VSetOf returns a set over universe size n containing the given vertices.
func VSetOf(n int, vs ...int) *VSet {
	s := NewVSet(n)
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// Len returns the number of members.
func (s *VSet) Len() int { return s.count }

// Empty reports whether the set has no members.
func (s *VSet) Empty() bool { return s.count == 0 }

// Has reports membership of v.
func (s *VSet) Has(v int) bool { return s.member[v] }

// Add inserts v; inserting an existing member is a no-op.
func (s *VSet) Add(v int) {
	if !s.member[v] {
		s.member[v] = true
		s.count++
	}
}

// Remove deletes v; deleting a non-member is a no-op.
func (s *VSet) Remove(v int) {
	if s.member[v] {
		s.member[v] = false
		s.count--
	}
}

// Clone returns an independent copy.
func (s *VSet) Clone() *VSet {
	c := &VSet{member: make([]bool, len(s.member)), count: s.count}
	copy(c.member, s.member)
	return c
}

// ForEach calls fn for every member in increasing order.
func (s *VSet) ForEach(fn func(v int)) {
	for v, in := range s.member {
		if in {
			fn(v)
		}
	}
}

// Members returns the members in increasing order.
func (s *VSet) Members() []int {
	out := make([]int, 0, s.count)
	for v, in := range s.member {
		if in {
			out = append(out, v)
		}
	}
	return out
}

// AddAll inserts every member of o into s.
func (s *VSet) AddAll(o *VSet) {
	o.ForEach(s.Add)
}

// RemoveAll deletes every member of o from s.
func (s *VSet) RemoveAll(o *VSet) {
	o.ForEach(s.Remove)
}

// Minus returns s \ o as a new set.
func (s *VSet) Minus(o *VSet) *VSet {
	c := s.Clone()
	c.RemoveAll(o)
	return c
}

// Intersect returns the intersection of s and o as a new set.
func (s *VSet) Intersect(o *VSet) *VSet {
	c := NewVSet(len(s.member))
	s.ForEach(func(v int) {
		if o.Has(v) {
			c.Add(v)
		}
	})
	return c
}

// Equal reports whether s and o contain exactly the same vertices.
func (s *VSet) Equal(o *VSet) bool {
	if s.count != o.count || len(s.member) != len(o.member) {
		return false
	}
	for v, in := range s.member {
		if in != o.member[v] {
			return false
		}
	}
	return true
}

// Disjoint reports whether s and o share no vertex.
func (s *VSet) Disjoint(o *VSet) bool {
	small, big := s, o
	if big.count < small.count {
		small, big = big, small
	}
	found := false
	small.ForEach(func(v int) {
		if big.Has(v) {
			found = true
		}
	})
	return !found
}
