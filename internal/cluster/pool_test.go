package cluster

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestAllocateRelease(t *testing.T) {
	p := New("test", 100)
	a, err := p.Allocate(0, 40, AllocRun)
	if err != nil {
		t.Fatal(err)
	}
	if p.Free() != 60 || p.Busy() != 40 || p.Running() != 40 || p.Held() != 0 {
		t.Fatalf("after allocate: %s", p)
	}
	if err := p.Release(10, a.ID); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 100 || p.Allocations() != 0 {
		t.Fatalf("after release: %s", p)
	}
}

func TestAllocateInsufficient(t *testing.T) {
	p := New("test", 10)
	if _, err := p.Allocate(0, 8, AllocRun); err != nil {
		t.Fatal(err)
	}
	_, err := p.Allocate(0, 3, AllocRun)
	if !errors.Is(err, ErrInsufficientNodes) {
		t.Fatalf("err = %v, want ErrInsufficientNodes", err)
	}
}

func TestAllocateBadRequest(t *testing.T) {
	p := New("test", 10)
	for _, n := range []int{0, -1, 11} {
		if _, err := p.Allocate(0, n, AllocRun); !errors.Is(err, ErrBadRequest) {
			t.Errorf("Allocate(%d) err = %v, want ErrBadRequest", n, err)
		}
	}
}

func TestReleaseUnknown(t *testing.T) {
	p := New("test", 10)
	if err := p.Release(0, 42); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatalf("err = %v, want ErrUnknownAlloc", err)
	}
}

// TestStaleHandlesAreUnknown covers every way a handle can fail to name a
// live grant in the slot table: released twice, outlived by a grant that
// recycled its slot, never issued by this pool, or not an ID at all. Each
// is ErrUnknownAlloc from Release and Convert alike, and none disturbs the
// live grants or the node counts.
func TestStaleHandlesAreUnknown(t *testing.T) {
	p := New("test", 100)
	a, err := p.Allocate(0, 10, AllocRun)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := p.Allocate(0, 20, AllocHold)
	if err != nil {
		t.Fatal(err)
	}
	stale := a.ID
	if err := p.Release(1, stale); err != nil {
		t.Fatal(err)
	}
	refused := func(what string, id int64) {
		t.Helper()
		if err := p.Release(2, id); !errors.Is(err, ErrUnknownAlloc) {
			t.Errorf("%s: Release(%d) err = %v, want ErrUnknownAlloc", what, id, err)
		}
		if _, err := p.Convert(2, id, AllocRun); !errors.Is(err, ErrUnknownAlloc) {
			t.Errorf("%s: Convert(%d) err = %v, want ErrUnknownAlloc", what, id, err)
		}
	}
	refused("double release", stale)
	if p.Allocations() != 1 || p.Free() != 80 {
		t.Fatalf("after double release: %d grants, %s", p.Allocations(), p)
	}

	// The next grant recycles the slot (and the struct) the stale handle
	// named; the handle must not reach it.
	b, err := p.Allocate(3, 30, AllocRun)
	if err != nil {
		t.Fatal(err)
	}
	if b != a || b.ID == stale || uint32(b.ID) != uint32(stale) {
		t.Fatalf("recycled grant: struct reused=%v id=%#x, stale id=%#x; want same struct and slot, new id", b == a, b.ID, stale)
	}
	refused("outlived then recycled", stale)
	if p.Allocations() != 2 || p.Free() != 50 || p.Held() != 20 {
		t.Fatalf("after stale handle on a recycled slot: %d grants, %s", p.Allocations(), p)
	}

	other := New("other", 100)
	var foreign int64
	for i := 0; i < 3; i++ { // its third grant names a slot p never had
		g, err := other.Allocate(0, 1, AllocRun)
		if err != nil {
			t.Fatal(err)
		}
		foreign = g.ID
	}
	refused("foreign", foreign)
	for _, id := range []int64{0, -1, 1 << 40, int64(1)<<32 | 7} {
		refused("never issued", id)
	}

	if err := p.Release(4, b.ID); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(4, keep.ID); err != nil {
		t.Fatal(err)
	}
	if p.Allocations() != 0 || p.Free() != 100 || p.Held() != 0 {
		t.Fatalf("after releasing the live grants: %d grants, %s", p.Allocations(), p)
	}
}

// TestAllocateReleaseCycleWithoutAllocating pins the slot table's steady
// state: once it has grown to the peak number of concurrent grants, any
// further allocate/convert/release churn reuses slots and structs.
func TestAllocateReleaseCycleWithoutAllocating(t *testing.T) {
	p := NewPartitioned("test", 64, 2)
	var ids [16]int64
	cycle := func() {
		for i := range ids {
			a, err := p.Allocate(0, 1+i%4, AllocHold)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = a.ID
		}
		for i, id := range ids {
			if i%2 == 0 {
				if _, err := p.Convert(1, id, AllocRun); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Release(2, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle() // grow the table to 16 slots
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("allocate/release churn allocates %.1f per cycle, want 0", allocs)
	}
	if p.Allocations() != 0 || p.Free() != 64 {
		t.Fatalf("after the churn: %d grants, %s", p.Allocations(), p)
	}
}

func TestHeldAccounting(t *testing.T) {
	p := New("test", 100)
	h, err := p.Allocate(0, 30, AllocHold)
	if err != nil {
		t.Fatal(err)
	}
	if p.Held() != 30 || p.Running() != 0 || p.Busy() != 30 {
		t.Fatalf("after hold: %s", p)
	}
	if got := p.HeldFraction(); got != 0.3 {
		t.Fatalf("held fraction = %g, want 0.3", got)
	}
	// Convert hold → run (mate became ready).
	if _, err := p.Convert(50, h.ID, AllocRun); err != nil {
		t.Fatal(err)
	}
	if p.Held() != 0 || p.Running() != 30 {
		t.Fatalf("after convert: %s", p)
	}
	p.Sync(100)
	// Held for 50s × 30 nodes = 1500 held node-seconds.
	if got := p.HeldNodeSeconds(); got != 1500 {
		t.Fatalf("held integral = %d, want 1500", got)
	}
	// Busy the whole 100s × 30 nodes = 3000.
	if got := p.BusyNodeSeconds(); got != 3000 {
		t.Fatalf("busy integral = %d, want 3000", got)
	}
	// Utilization excludes the held time: (3000-1500)/(100*100) = 0.15.
	if got := p.Utilization(100); got != 0.15 {
		t.Fatalf("utilization = %g, want 0.15", got)
	}
}

func TestConvertIdempotentAndUnknown(t *testing.T) {
	p := New("test", 10)
	a, _ := p.Allocate(0, 4, AllocRun)
	if _, err := p.Convert(0, a.ID, AllocRun); err != nil {
		t.Fatalf("same-kind convert: %v", err)
	}
	if _, err := p.Convert(0, 999, AllocHold); !errors.Is(err, ErrUnknownAlloc) {
		t.Fatalf("err = %v, want ErrUnknownAlloc", err)
	}
}

func TestPartitionedChargeFor(t *testing.T) {
	p := NewPartitioned("intrepid", 40960, 512)
	cases := map[int]int{
		1:     512,
		512:   512,
		513:   1024,
		1024:  1024,
		2049:  4096,
		40960: 40960,
		33000: 40960, // next pow2 is 65536 > total, clamp to total
	}
	for req, want := range cases {
		if got := p.ChargeFor(req); got != want {
			t.Errorf("ChargeFor(%d) = %d, want %d", req, got, want)
		}
	}
}

func TestPartitionedAllocation(t *testing.T) {
	p := NewPartitioned("bgp", 4096, 512)
	a, err := p.Allocate(0, 700, AllocRun) // charges 1024
	if err != nil {
		t.Fatal(err)
	}
	if a.Allocated != 1024 || a.Requested != 700 {
		t.Fatalf("alloc = %+v", a)
	}
	if p.Free() != 4096-1024 {
		t.Fatalf("free = %d", p.Free())
	}
	if !p.CanAllocate(3000) { // charges 4096 > 3072? No: ChargeFor(3000)=4096 > free 3072.
		// 3000 rounds to 4096 which exceeds free capacity — CanAllocate
		// must be false; flip the assertion.
		t.Log("CanAllocate(3000) correctly false")
	} else {
		t.Fatal("CanAllocate(3000) = true, want false (charge 4096 > free 3072)")
	}
}

// Property: any sequence of allocate/release keeps invariants:
// 0 ≤ free ≤ total, held ≤ busy, and conservation free + busy = total.
func TestPoolInvariantsProperty(t *testing.T) {
	type op struct {
		N    uint8
		Hold bool
		Rel  bool
	}
	f := func(ops []op) bool {
		p := New("q", 64)
		var live []int64
		now := int64(0)
		for _, o := range ops {
			now++
			if o.Rel && len(live) > 0 {
				id := live[0]
				live = live[1:]
				if err := p.Release(now, id); err != nil {
					return false
				}
			} else {
				n := int(o.N%64) + 1
				kind := AllocRun
				if o.Hold {
					kind = AllocHold
				}
				a, err := p.Allocate(now, n, kind)
				if err == nil {
					live = append(live, a.ID)
				}
			}
			if p.Free() < 0 || p.Free() > p.Total() {
				return false
			}
			if p.Held() > p.Busy() || p.Held() < 0 {
				return false
			}
			if p.Free()+p.Busy() != p.Total() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationZeroSpan(t *testing.T) {
	p := New("x", 10)
	if got := p.Utilization(0); got != 0 {
		t.Fatalf("utilization with zero span = %g, want 0", got)
	}
}

// TestFitIsTheChargeThreshold: n <= Fit() holds exactly when ChargeFor(n)
// <= Free(), for every request 1 <= n <= Total() at every free level from 0
// to Total(), on plain and partitioned pools: free == total (on Intrepid's
// non-power-of-two 40,960 nodes the widest charges are clamped to the
// total), free below the smallest partition, and a partition wider than
// the pool. Small pools are checked request by request; on Intrepid's,
// ChargeFor is first checked to be nondecreasing, so the two requests
// either side of Fit() decide every other.
func TestFitIsTheChargeThreshold(t *testing.T) {
	pools := []*Pool{
		New("plain", 100),
		New("single", 1),
		NewPartitioned("A", 128, 16),
		NewPartitioned("odd", 100, 8),
		NewPartitioned("coarse", 100, 128),
		NewPartitioned("intrepid", 40960, 512),
	}
	for _, p := range pools {
		total := p.Total()
		exhaustive := total <= 1024
		if !exhaustive {
			for n := 2; n <= total; n++ {
				if p.ChargeFor(n) < p.ChargeFor(n-1) {
					t.Fatalf("%s: ChargeFor(%d) = %d < ChargeFor(%d) = %d", p.Name(), n, p.ChargeFor(n), n-1, p.ChargeFor(n-1))
				}
			}
		}
		for free := 0; free <= total; free++ {
			p.free = free
			fit := p.Fit()
			if fit < 0 || fit > total {
				t.Fatalf("%s at free %d: Fit() = %d outside [0, %d]", p.Name(), free, fit, total)
			}
			check := func(n int) {
				if fits := p.ChargeFor(n) <= free; (n <= fit) != fits {
					t.Fatalf("%s at free %d: Fit() = %d, but ChargeFor(%d) = %d (fits: %v)", p.Name(), free, fit, n, p.ChargeFor(n), fits)
				}
			}
			if exhaustive {
				for n := 1; n <= total; n++ {
					check(n)
				}
				continue
			}
			if fit >= 1 {
				check(fit)
			}
			if fit < total {
				check(fit + 1)
			}
		}
		p.free = total
	}
}
