// Package cluster models the compute resource of one scheduling domain as a
// pool of interchangeable nodes with busy/held accounting, plus an optional
// Blue Gene/P-style partition constraint that rounds allocations up to
// power-of-two partition sizes.
//
// The pool also integrates busy node-seconds over virtual time so the
// metrics layer can report utilization and service-unit loss without
// sampling.
package cluster

import (
	"errors"
	"fmt"

	"cosched/internal/sim"
)

// AllocKind distinguishes why nodes are occupied.
type AllocKind int

const (
	// AllocRun marks nodes executing a job.
	AllocRun AllocKind = iota
	// AllocHold marks nodes held by a coscheduling job waiting for its
	// mate. Held nodes are busy to the scheduler but perform no work, so
	// they count as service-unit loss rather than utilization.
	AllocHold
)

func (k AllocKind) String() string {
	if k == AllocHold {
		return "hold"
	}
	return "run"
}

// Errors returned by the pool.
var (
	ErrInsufficientNodes = errors.New("cluster: insufficient free nodes")
	ErrUnknownAlloc      = errors.New("cluster: unknown allocation")
	ErrBadRequest        = errors.New("cluster: invalid request")
)

// Allocation records one grant of nodes. Allocated is ≥ Requested when the
// partition constraint rounds up. ID names a slot of the pool's allocation
// table in its low 32 bits (1-based) and that slot's generation above them,
// so a handle that outlived its grant never matches the slot's next tenant.
type Allocation struct {
	ID        int64
	Requested int
	Allocated int
	Kind      AllocKind
	Since     sim.Time
}

// Pool is the node allocator for one domain. It is not safe for concurrent
// use; the single-threaded simulation engine serializes access, and the live
// daemon wraps it in the resource manager's lock.
type Pool struct {
	name  string
	total int

	// partitioned enables BG/P-style allocation: requests are rounded up
	// to the next power of two ≥ minPartition before being charged
	// against the pool.
	partitioned  bool
	minPartition int

	free int
	held int // subset of busy nodes that are held, not running
	// slots is the live-allocation table: slots[i] is the grant whose ID
	// names slot i, nil while the slot is vacant. freed holds the released
	// structs; each keeps its last ID, which is how the next Allocate finds
	// the slot to refill and the generation to advance.
	slots   []*Allocation
	freed   []*Allocation
	lastT   sim.Time
	busyInt int64 // ∫ busy(t) dt in node-seconds (includes held)
	heldInt int64 // ∫ held(t) dt in node-seconds
}

// New returns a pool of total interchangeable nodes.
func New(name string, total int) *Pool {
	if total <= 0 {
		panic(fmt.Sprintf("cluster: pool %q total must be positive, got %d", name, total))
	}
	return &Pool{name: name, total: total, free: total}
}

// NewPartitioned returns a pool that rounds every request up to the next
// power-of-two multiple of minPartition, as Blue Gene/P partitions do
// (Intrepid allocates 512, 1024, 2048 … node partitions).
func NewPartitioned(name string, total, minPartition int) *Pool {
	p := New(name, total)
	if minPartition <= 0 {
		panic("cluster: minPartition must be positive")
	}
	p.partitioned = true
	p.minPartition = minPartition
	return p
}

// Name returns the pool's domain name.
func (p *Pool) Name() string { return p.name }

// Total returns the node count.
func (p *Pool) Total() int { return p.total }

// Free returns currently unallocated nodes.
func (p *Pool) Free() int { return p.free }

// Busy returns total − free (running + held).
func (p *Pool) Busy() int { return p.total - p.free }

// Held returns nodes occupied by coscheduling holds.
func (p *Pool) Held() int { return p.held }

// Running returns nodes executing jobs (busy − held).
func (p *Pool) Running() int { return p.total - p.free - p.held }

// ChargeFor returns how many nodes a request for n actually consumes under
// this pool's allocation rules (identity for plain pools; next power-of-two
// partition for partitioned pools).
func (p *Pool) ChargeFor(n int) int {
	if !p.partitioned {
		return n
	}
	size := p.minPartition
	for size < n {
		size *= 2
	}
	if size > p.total {
		size = p.total
	}
	return size
}

// CanAllocate reports whether a request for n nodes would succeed now.
func (p *Pool) CanAllocate(n int) bool {
	if n <= 0 || n > p.total {
		return false
	}
	return p.ChargeFor(n) <= p.free
}

// Allocate grants n nodes of the given kind at virtual time now. The
// returned allocation ID is used to Release or Convert.
//
// Allocation structs are recycled: a pointer obtained from Allocate is
// valid only until its Release, after which the next Allocate may reuse
// the struct for an unrelated grant. Callers must not retain it past that
// point (the resource manager drops its entry in the same event).
//
//simlint:hotpath
func (p *Pool) Allocate(now sim.Time, n int, kind AllocKind) (*Allocation, error) {
	if n <= 0 || n > p.total {
		return nil, fmt.Errorf("%w: %d nodes from pool of %d", ErrBadRequest, n, p.total)
	}
	charge := p.ChargeFor(n)
	if charge > p.free {
		return nil, fmt.Errorf("%w: need %d (charged %d), free %d", ErrInsufficientNodes, n, charge, p.free)
	}
	p.integrate(now)
	p.free -= charge
	if kind == AllocHold {
		p.held += charge
	}
	var a *Allocation
	if k := len(p.freed); k > 0 {
		a = p.freed[k-1]
		p.freed[k-1] = nil
		p.freed = p.freed[:k-1]
		a.ID += 1 << 32 // same slot, next generation
	} else {
		a = &Allocation{ID: int64(len(p.slots)) + 1}
		p.slots = append(p.slots, nil) //simlint:allow R6 amortized slot-table growth, bounded by peak concurrent grants
	}
	*a = Allocation{ID: a.ID, Requested: n, Allocated: charge, Kind: kind, Since: now}
	p.slots[uint32(a.ID)-1] = a
	return a, nil
}

// lookup resolves a handle to its live allocation: nil for an ID the pool
// never issued, one already released, or one whose slot has been reissued.
func (p *Pool) lookup(id int64) *Allocation {
	slot := uint32(id) - 1 // 0 wraps past any table length
	if uint64(slot) >= uint64(len(p.slots)) {
		return nil
	}
	if a := p.slots[slot]; a != nil && a.ID == id {
		return a
	}
	return nil
}

// Release returns an allocation's nodes to the free pool. The Allocation
// struct goes back on the recycle list — see Allocate's retention contract.
//
//simlint:hotpath
func (p *Pool) Release(now sim.Time, id int64) error {
	a := p.lookup(id)
	if a == nil {
		return fmt.Errorf("%w: id %d", ErrUnknownAlloc, id)
	}
	p.integrate(now)
	p.free += a.Allocated
	if a.Kind == AllocHold {
		p.held -= a.Allocated
	}
	p.slots[uint32(id)-1] = nil
	// The pool is single-threaded (engine-serialized), so same-event reads
	// of the released struct remain valid until the next Allocate reuses it.
	p.freed = append(p.freed, a) //simlint:allow R6 amortized recycle-list growth, bounded by peak concurrent grants
	return nil
}

// Convert switches an allocation between hold and run in place (used when a
// holding job's mate becomes ready and the job starts on the nodes it
// already occupies). It returns the allocation for convenience.
func (p *Pool) Convert(now sim.Time, id int64, kind AllocKind) (*Allocation, error) {
	a := p.lookup(id)
	if a == nil {
		return nil, fmt.Errorf("%w: id %d", ErrUnknownAlloc, id)
	}
	if a.Kind == kind {
		return a, nil
	}
	p.integrate(now)
	if a.Kind == AllocHold {
		p.held -= a.Allocated
	} else {
		p.held += a.Allocated
	}
	a.Kind = kind
	a.Since = now
	return a, nil
}

// Allocations returns the number of live allocations: every slot is either
// live or has its struct on the recycle list.
func (p *Pool) Allocations() int { return len(p.slots) - len(p.freed) }

// integrate advances the utilization integrals to now.
func (p *Pool) integrate(now sim.Time) {
	if now < p.lastT {
		// Clock never goes backwards in the engine; guard anyway.
		return
	}
	dt := now - p.lastT
	p.busyInt += int64(p.Busy()) * dt
	p.heldInt += int64(p.held) * dt
	p.lastT = now
}

// Sync advances the integrals to now without changing allocations. Call it
// before reading the integral accessors at the end of a run.
func (p *Pool) Sync(now sim.Time) { p.integrate(now) }

// BusyNodeSeconds returns ∫ busy dt including held nodes, up to the last
// integrate/Sync point.
func (p *Pool) BusyNodeSeconds() int64 { return p.busyInt }

// HeldNodeSeconds returns ∫ held dt — the pool-side view of service-unit
// loss.
func (p *Pool) HeldNodeSeconds() int64 { return p.heldInt }

// Utilization returns busy node-seconds (excluding held) divided by
// total × span. span must be positive.
func (p *Pool) Utilization(span sim.Duration) float64 {
	if span <= 0 {
		return 0
	}
	return float64(p.busyInt-p.heldInt) / (float64(p.total) * float64(span))
}

// HeldFraction returns the fraction of the pool currently held. The
// resource manager consults it against the max-held threshold before
// letting another job hold.
func (p *Pool) HeldFraction() float64 { return float64(p.held) / float64(p.total) }

// String renders a snapshot for logs.
func (p *Pool) String() string {
	return fmt.Sprintf("pool %s: total=%d free=%d running=%d held=%d",
		p.name, p.total, p.free, p.Running(), p.held)
}
