// Package arena provides a slab-based typed arena: values are handed out
// from fixed-size slabs and reclaimed all at once with Reset, not
// individually freed. The experiment harness allocates every job of a
// simulation cell from one arena and resets it between repetitions, so
// steady-state sweep execution recycles the same slabs instead of churning
// the garbage collector with millions of short-lived structs.
//
// Slabs are fixed-size (not doubling), so pointers returned by Get remain
// stable for the arena's lifetime: growing the arena never moves values
// already handed out. Reset keeps the slabs and hands the same memory out
// again, so a pointer obtained before a Reset must not be used afterwards.
package arena

// slabSize is the number of values per slab. 4096 jobs × 160 B = 640 KiB
// per slab keeps slab count low for million-value arenas while bounding
// over-allocation for small ones.
const slabSize = 4096

// Arena hands out values of type T from recycled slabs. The zero value is
// ready to use. Not safe for concurrent use; each simulation cell (or
// worker) owns its own arena.
type Arena[T any] struct {
	slabs [][]T
	slab  int // index of the slab currently being filled
	next  int // next unused element in that slab
	live  int // values handed out since the last Reset
	zero  T
}

// Get returns a pointer to a zeroed T. The pointer is stable until Reset.
//
//simlint:hotpath
func (a *Arena[T]) Get() *T {
	if a.slab == len(a.slabs) {
		a.slabs = append(a.slabs, make([]T, slabSize)) //simlint:allow R6 amortized slab growth: one allocation per slabSize values, none once Reset reuses slabs
	}
	s := a.slabs[a.slab]
	p := &s[a.next]
	*p = a.zero // slabs are reused across Resets; hand out clean values
	a.next++
	a.live++
	if a.next == slabSize {
		a.slab++
		a.next = 0
	}
	return p
}

// Len returns the number of values handed out since the last Reset.
func (a *Arena[T]) Len() int { return a.live }

// Cap returns the total capacity currently held in slabs.
func (a *Arena[T]) Cap() int { return len(a.slabs) * slabSize }

// Reset reclaims every value at once, keeping the slabs for reuse. All
// pointers previously returned by Get become invalid: the same memory will
// be handed out (re-zeroed) by subsequent Gets.
func (a *Arena[T]) Reset() {
	a.slab = 0
	a.next = 0
	a.live = 0
}
