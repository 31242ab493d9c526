// Package driver models the PIM-row half of the device driver of Section
// V-A. At boot it reserves the PIM configuration rows and the PIM operand
// rows of every bank, then hands out runs of consecutive operand rows, so
// a PIM kernel's operands sit at the same rows in every bank and never
// need virtual-to-physical translation mid-kernel. Rows with
// uncorrectable faults are quarantined out of the free list for good.
package driver

import (
	"fmt"
	"sync"

	"pimsim/internal/hbm"
	"pimsim/internal/obs"
)

// Driver owns the PIM rows of the memory system. All allocation methods
// are safe for concurrent use; note however that one Driver belongs to one
// Runtime (one simulated device shard), so independent shards never share
// allocator state.
type Driver struct {
	cfg hbm.Config

	mu sync.Mutex

	// Row space per bank: [0, pimRowBase) belongs to host data,
	// [pimRowBase, confRowBase) to PIM operand layouts, and
	// [confRowBase, Rows) is the PIM configuration space.
	confRowBase uint32
	pimRowBase  uint32

	// PIM row bookkeeping: a first-fit free list (sorted by base,
	// adjacent spans coalesced) plus the live allocations by base row.
	// Long-lived model weights (the serving layer) and transient kernel
	// scratch allocate from the same region, so spans must be freeable
	// individually — a bump pointer would leak rows across repeated model
	// load/unload cycles.
	pimFree     []rowSpan
	pimAlloc    map[uint32]uint32 // base row -> span length
	quarantined []rowSpan         // rows retired by QuarantinePIMRows (sorted)

	// Obs, when set, records PIM-row allocator activity (allocations,
	// frees, quarantines) as instant events in the flight recorder,
	// labelled ObsName (the serving layer sets "shardN"). Nil costs one
	// pointer compare per allocator call.
	Obs     *obs.Tracer
	ObsName string
}

// rowSpan is a contiguous range of PIM rows [Base, Base+N).
type rowSpan struct {
	Base, N uint32
}

// PIMRowFraction is the share of each bank's rows the driver reserves for
// PIM operand layouts at boot.
const PIMRowFraction = 0.5

// New boots the driver for a memory system with the device geometry cfg.
func New(cfg hbm.Config) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Driver{cfg: cfg}
	if cfg.PIMUnits > 0 {
		d.confRowBase = uint32(cfg.Rows - hbm.NumConfRows)
		d.pimRowBase = uint32(float64(cfg.Rows) * (1 - PIMRowFraction))
		if d.pimRowBase >= d.confRowBase {
			d.pimRowBase = d.confRowBase / 2
		}
	} else {
		d.confRowBase = uint32(cfg.Rows)
		d.pimRowBase = uint32(cfg.Rows)
	}
	d.pimAlloc = make(map[uint32]uint32)
	if d.confRowBase > d.pimRowBase {
		d.pimFree = []rowSpan{{Base: d.pimRowBase, N: d.confRowBase - d.pimRowBase}}
	}
	return d, nil
}

// PIMRows returns the row range reserved for PIM operand layouts.
func (d *Driver) PIMRows() (base, limit uint32) { return d.pimRowBase, d.confRowBase }

// AllocPIMRows reserves n consecutive rows (the same row indices in every
// bank of every channel) for a PIM operand layout and returns the base
// row. Allocation is first-fit from the lowest free span, so a kernel
// that frees its rows and reruns lands on the same rows again.
func (d *Driver) AllocPIMRows(n int) (uint32, error) {
	if d.cfg.PIMUnits == 0 {
		return 0, fmt.Errorf("driver: PIM rows on a device without PIM units")
	}
	if n <= 0 {
		return 0, fmt.Errorf("driver: non-positive row count")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.pimFree {
		s := &d.pimFree[i]
		if uint64(s.N) < uint64(n) {
			continue
		}
		base := s.Base
		s.Base += uint32(n)
		s.N -= uint32(n)
		if s.N == 0 {
			d.pimFree = append(d.pimFree[:i], d.pimFree[i+1:]...)
		}
		d.pimAlloc[base] = uint32(n)
		if d.Obs != nil {
			d.Obs.Event("", "driver.alloc", fmt.Sprintf("%s base=%d rows=%d", d.ObsName, base, n))
		}
		return base, nil
	}
	var free, largest uint32
	for _, s := range d.pimFree {
		free += s.N
		if s.N > largest {
			largest = s.N
		}
	}
	return 0, fmt.Errorf("driver: out of PIM rows (%d requested, %d free in %d spans, largest %d)",
		n, free, len(d.pimFree), largest)
}

// FreePIMRows releases one AllocPIMRows reservation by its base row.
// Freeing an unknown base (or the same base twice) is an error: for a
// serving system that loads and unloads models for hours, a silent
// double free would corrupt a neighbouring model's weights.
func (d *Driver) FreePIMRows(base uint32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.pimAlloc[base]
	if !ok {
		return fmt.Errorf("driver: FreePIMRows(%d): not a live PIM row allocation", base)
	}
	delete(d.pimAlloc, base)
	// Insert sorted by base and coalesce with both neighbours.
	i := 0
	for i < len(d.pimFree) && d.pimFree[i].Base < base {
		i++
	}
	d.pimFree = append(d.pimFree, rowSpan{})
	copy(d.pimFree[i+1:], d.pimFree[i:])
	d.pimFree[i] = rowSpan{Base: base, N: n}
	if i+1 < len(d.pimFree) && d.pimFree[i].Base+d.pimFree[i].N == d.pimFree[i+1].Base {
		d.pimFree[i].N += d.pimFree[i+1].N
		d.pimFree = append(d.pimFree[:i+1], d.pimFree[i+2:]...)
	}
	if i > 0 && d.pimFree[i-1].Base+d.pimFree[i-1].N == d.pimFree[i].Base {
		d.pimFree[i-1].N += d.pimFree[i].N
		d.pimFree = append(d.pimFree[:i], d.pimFree[i+1:]...)
	}
	if d.Obs != nil {
		d.Obs.Event("", "driver.free", fmt.Sprintf("%s base=%d rows=%d", d.ObsName, base, n))
	}
	return nil
}

// QuarantinePIMRows permanently retires n consecutive rows starting at
// base from the PIM allocator — the ECC-backed recovery path for rows
// with uncorrectable (stuck multi-bit) faults. The rows must currently
// be free: a model still resident on a faulty row is unloaded first,
// then its row quarantined, then the model reloaded (first-fit skips
// the hole). Quarantined rows never return.
func (d *Driver) QuarantinePIMRows(base uint32, n int) error {
	if n <= 0 {
		return fmt.Errorf("driver: non-positive quarantine count")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	end := base + uint32(n)
	for i := range d.pimFree {
		s := &d.pimFree[i]
		if base < s.Base || end > s.Base+s.N {
			continue
		}
		// Split the span around [base, end).
		tail := rowSpan{Base: end, N: s.Base + s.N - end}
		s.N = base - s.Base
		if s.N == 0 {
			if tail.N == 0 {
				d.pimFree = append(d.pimFree[:i], d.pimFree[i+1:]...)
			} else {
				*s = tail
			}
		} else if tail.N > 0 {
			d.pimFree = append(d.pimFree, rowSpan{})
			copy(d.pimFree[i+2:], d.pimFree[i+1:])
			d.pimFree[i+1] = tail
		}
		j := 0
		for j < len(d.quarantined) && d.quarantined[j].Base < base {
			j++
		}
		d.quarantined = append(d.quarantined, rowSpan{})
		copy(d.quarantined[j+1:], d.quarantined[j:])
		d.quarantined[j] = rowSpan{Base: base, N: uint32(n)}
		if d.Obs != nil {
			d.Obs.Event("", "driver.quarantine", fmt.Sprintf("%s base=%d rows=%d", d.ObsName, base, n))
		}
		return nil
	}
	for b, nn := range d.pimAlloc {
		if base >= b && base < b+nn {
			return fmt.Errorf("driver: QuarantinePIMRows(%d,%d): rows are live; unload the owner first", base, n)
		}
	}
	return fmt.Errorf("driver: QuarantinePIMRows(%d,%d): rows outside the free PIM region", base, n)
}

// PIMRowsQuarantined returns how many PIM rows have been retired.
func (d *Driver) PIMRowsQuarantined() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n uint32
	for _, s := range d.quarantined {
		n += s.N
	}
	return int(n)
}

// PIMRowsFree returns the number of currently unallocated PIM rows.
func (d *Driver) PIMRowsFree() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var free uint32
	for _, s := range d.pimFree {
		free += s.N
	}
	return int(free)
}

// PIMRowsLive returns the number of PIM rows currently allocated to
// resident spans (model weights, recurrent state). With PIMRowsFree and
// PIMRowsQuarantined it completes the row-budget picture /v1/models
// reports per shard.
func (d *Driver) PIMRowsLive() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	var live uint32
	for _, n := range d.pimAlloc {
		live += n
	}
	return int(live)
}
