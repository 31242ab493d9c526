package runtime

import (
	"fmt"
	"sort"
)

// Channel partitioning (Section VIII, "Virtualization and Multi-tenancy"):
// because the host controls the PIM operations of every memory channel
// independently, disjoint channel sets can be handed to different tenants
// — each tenant's kernels see only its own channels and cannot perturb
// another tenant's command streams or timing.

// Restrict returns a runtime view over a subset of channels. The view
// shares the underlying devices and driver (row reservations are global,
// so tenants never collide on PIM rows) but kernels built on it
// distribute work across — and issue commands to — only the listed
// channels. Channel indices are in the parent's numbering and must be
// unique.
func (r *Runtime) Restrict(channels []int) (*Runtime, error) {
	if len(channels) == 0 {
		return nil, fmt.Errorf("runtime: empty channel set")
	}
	seen := make(map[int]bool, len(channels))
	sorted := append([]int(nil), channels...)
	sort.Ints(sorted)
	view := &Runtime{Cfg: r.Cfg, Drv: r.Drv, SimChannels: 0, Metrics: r.Metrics, zeros: r.zeros}
	for _, ch := range sorted {
		if ch < 0 || ch >= len(r.Chans) {
			return nil, fmt.Errorf("runtime: channel %d out of range", ch)
		}
		if seen[ch] {
			return nil, fmt.Errorf("runtime: duplicate channel %d", ch)
		}
		seen[ch] = true
		view.Chans = append(view.Chans, r.Chans[ch])
		view.Execs = append(view.Execs, r.Execs[ch])
		view.chs = append(view.chs, r.chs[ch])
	}
	return view, nil
}

// PartitionEven splits the runtime into n equal tenant views. The channel
// count must divide evenly.
func (r *Runtime) PartitionEven(n int) ([]*Runtime, error) {
	if n <= 0 || len(r.Chans)%n != 0 {
		return nil, fmt.Errorf("runtime: cannot split %d channels into %d partitions", len(r.Chans), n)
	}
	per := len(r.Chans) / n
	out := make([]*Runtime, n)
	for i := range out {
		chans := make([]int, per)
		for j := range chans {
			chans[j] = i*per + j
		}
		view, err := r.Restrict(chans)
		if err != nil {
			return nil, err
		}
		out[i] = view
	}
	return out, nil
}
