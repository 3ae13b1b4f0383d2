package congest

import "sync"

// barrier is a reusable round barrier whose participant count can shrink
// as nodes finish. Whoever completes a generation — the last wait, or a
// leave that was the last missing arrival — runs onRelease (message
// delivery) while every other live node is parked and then wakes them,
// which gives the simulation its synchronous-rounds semantics.
//
// Parking is per-node: every participant owns a 1-buffered wake channel,
// so a wakeup is a single channel send that the runtime turns into a
// direct handoff.
type barrier struct {
	mu      sync.Mutex
	live    int    // participants still running
	arrived int    // arrivals this generation
	gone    []bool // departed participants, written under mu
	wake    []chan struct{}

	onRelease func()
}

func (b *barrier) init(n int, onRelease func()) {
	b.live = n
	b.onRelease = onRelease
	b.gone = make([]bool, n)
	b.wake = make([]chan struct{}, n)
	for i := range b.wake {
		b.wake[i] = make(chan struct{}, 1)
	}
}

// wait parks the caller, whose dense node index is idx, until all live
// participants have arrived.
func (b *barrier) wait(idx int) {
	b.mu.Lock()
	b.arrived++
	if b.arrived < b.live {
		b.mu.Unlock()
		<-b.wake[idx]
		return
	}
	b.release(idx)
}

// leave removes the caller from the participant set. If it was the only
// missing arrival, it completes the generation on the others' behalf.
func (b *barrier) leave(idx int) {
	b.mu.Lock()
	b.live--
	b.gone[idx] = true
	if b.live == 0 || b.arrived < b.live {
		b.mu.Unlock()
		return
	}
	b.release(idx)
}

// release completes the generation on behalf of the caller idx, which
// holds mu: it delivers, unlocks, and wakes every other live node.
func (b *barrier) release(idx int) {
	b.onRelease()
	b.arrived = 0
	b.mu.Unlock()
	// gone is read here without mu. That is safe only because a woken
	// node writes (by leaving) just its own slot, which this loop has
	// already passed; unwoken nodes are parked and write nothing.
	for i := range b.wake {
		if i != idx && !b.gone[i] {
			b.wake[i] <- struct{}{}
		}
	}
}
