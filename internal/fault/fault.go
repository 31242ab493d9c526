// Package fault is the deterministic fault-injection layer for the
// simulated PIM memory system. It produces the misbehaviour a fielded
// HBM2 part exhibits — transient single- and multi-bit upsets on the
// row-buffer readout, stuck-at cells, command-issue latency spikes, and
// whole-device outages — as pure functions of a seed and the access
// address, so every chaos run replays bit-for-bit.
//
// The injector plugs into the device model behind two tiny interfaces
// (hbm.ReadFault and memctrl.Delayer) that are nil-checked on the hot
// path: a device without an attached injector pays one pointer compare
// per readout and nothing else. Corruption happens on the *readout*
// copy, after the array is read and before the ECC engine decodes it —
// the stored cells stay clean, which is exactly how a transient upset
// or a weak cell behaves (scrubbing rewrites good data, and a stuck
// cell re-corrupts the next read anyway).
//
// Determinism: every flip decision is a splitmix64-style hash of
// (seed, channel, bank, row, col, word, seq) where seq is the pseudo
// channel's own readout counter. No time.Now, no shared math/rand
// state — concurrent kernels on different channels draw from disjoint,
// order-independent streams, so a parallel engine
// (runtime.Runtime.UseEngine) does not perturb the fault pattern.
package fault

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// StuckBit pins one data bit so it reads back inverted on every readout
// of its 32-byte block: a permanent weak cell. Two StuckBits in the same
// 64-bit word make that word permanently uncorrectable under SEC-DED —
// the fault the serving layer's quarantine-and-relocate recovery exists
// for.
type StuckBit struct {
	Shard   int    // serving shard the cell lives in (-1: every shard)
	Channel int    // pseudo channel (-1: every channel)
	Bank    int    // flat bank index (bg*BanksPerGroup + bank)
	Row     uint32 // array row
	Col     uint32 // 32-byte column within the row
	Bit     int    // bit position within the 256-bit block (0-255)
}

// Config describes one fault profile. The zero value injects nothing.
// Rates and schedules are interpreted by Injector; the *Shard fields
// are consumed by ForShard when the serving layer specializes the
// profile for each device in its pool.
type Config struct {
	// Seed keys every injection decision. Two runs with equal Config
	// and equal traffic produce identical faults.
	Seed int64

	// Shard is the serving shard this config was specialized for (set
	// by ForShard; informational — it labels ShardDeadError).
	Shard int

	// FlipRate is the per-64-bit-word probability of a transient
	// single-bit upset on readout. With ECC enabled every such flip is
	// corrected and counted; without ECC it silently corrupts data.
	FlipRate float64

	// DoubleFlipRate is the per-word probability of a two-bit upset:
	// detectable but uncorrectable under SEC-DED, surfacing as
	// hbm.UncorrectableError.
	DoubleFlipRate float64

	// Stuck lists permanent weak cells.
	Stuck []StuckBit

	// SpikeShard selects which serving shard sees latency spikes
	// (-1: all shards).
	SpikeShard int

	// SpikeEvery injects one latency spike per that many issued
	// commands on an affected channel (0: no spikes). SpikeCycles is
	// the extra delay, in memory-clock cycles.
	SpikeEvery  int64
	SpikeCycles int64

	// DeadShard selects which serving shard suffers the outage below.
	DeadShard int

	// DieAfterBatches, when > 0, kills the dead shard starting at its
	// Nth batch attempt: every batch and probe on it fails with
	// ShardDeadError until ReviveAfterProbes probe attempts have failed,
	// after which the shard is permanently healthy again
	// (ReviveAfterProbes 0: the shard never revives).
	DieAfterBatches   int64
	ReviveAfterProbes int64

	// HangMs simulates a hung device rescued by a watchdog: each failed
	// batch or probe on the dead shard blocks this long before
	// reporting ShardDeadError.
	HangMs int
}

// CorruptsData reports whether the profile injects data corruption
// (bit flips or stuck cells) — if so, the device needs its ECC engine
// enabled to keep served outputs correct.
func (c Config) CorruptsData() bool {
	return c.FlipRate > 0 || c.DoubleFlipRate > 0 || len(c.Stuck) > 0
}

// Delays reports whether the profile injects command-issue latency.
func (c Config) Delays() bool { return c.SpikeEvery > 0 && c.SpikeCycles > 0 }

// Enabled reports whether the profile injects anything at all.
func (c Config) Enabled() bool {
	return c.CorruptsData() || c.Delays() || c.DieAfterBatches > 0
}

// ForShard specializes the profile for one serving shard: the seed is
// re-keyed so shards draw independent fault streams, and shard-targeted
// faults (outage, spikes, stuck cells) are kept only on their target.
func (c Config) ForShard(shard int) Config {
	out := c
	out.Shard = shard
	out.Seed = c.Seed ^ int64(mix(uint64(shard)*0x9e3779b97f4a7c15+0x6a09e667f3bcc909))
	if c.DieAfterBatches > 0 && c.DeadShard != shard {
		out.DieAfterBatches, out.ReviveAfterProbes, out.HangMs = 0, 0, 0
	}
	if c.SpikeShard >= 0 && c.SpikeShard != shard {
		out.SpikeEvery, out.SpikeCycles = 0, 0
	}
	out.Stuck = nil
	for _, sb := range c.Stuck {
		if sb.Shard < 0 || sb.Shard == shard {
			out.Stuck = append(out.Stuck, sb)
		}
	}
	return out
}

// ProfileNames lists the named profiles Profile accepts.
func ProfileNames() []string { return []string{"none", "chaos-mild", "chaos-hard"} }

// Profile returns a named fault profile keyed by seed.
//
// "none" injects nothing. "chaos-mild" stays within what SEC-DED
// corrects — transient single-bit flips only, plus latency spikes
// everywhere and one shard outage with revival — so a verifying load
// generator must see zero wrong answers. "chaos-hard" adds rare
// transient double-bit upsets, a permanently uncorrectable stuck word
// in the first PIM row, and a hang before the outage reports,
// exercising the retry, eviction and quarantine-relocate paths.
func Profile(name string, seed int64) (Config, error) {
	switch name {
	case "", "none":
		return Config{Seed: seed, SpikeShard: -1}, nil
	case "chaos-mild":
		return Config{
			Seed:           seed,
			FlipRate:       1e-4,
			DoubleFlipRate: 0,
			SpikeShard:     -1,
			SpikeEvery:     3000,
			SpikeCycles:    60000,
			DeadShard:      0, DieAfterBatches: 10, ReviveAfterProbes: 3,
		}, nil
	case "chaos-hard":
		return Config{
			Seed:     seed,
			FlipRate: 1e-3,
			// Rare enough that a known-answer probe (which reads every
			// resident model's full weight footprint) still passes most of
			// the time — transient double flips must be survivable, not a
			// permanent denial of service.
			DoubleFlipRate: 3e-7,
			// Two stuck bits in one 64-bit word: a deterministic
			// uncorrectable in the first PIM row, which is what forces the
			// quarantine-and-relocate recovery (one stuck bit would just
			// be corrected on every read).
			Stuck: []StuckBit{
				{Shard: -1, Channel: -1, Bank: 0, Row: 2048, Col: 0, Bit: 3},
				{Shard: -1, Channel: -1, Bank: 0, Row: 2048, Col: 0, Bit: 12},
			},
			SpikeShard:  -1,
			SpikeEvery:  2000,
			SpikeCycles: 100000,
			DeadShard:   0, DieAfterBatches: 8, ReviveAfterProbes: 3,
			HangMs: 2,
		}, nil
	}
	return Config{}, fmt.Errorf("fault: unknown profile %q (have %s)",
		name, strings.Join(ProfileNames(), ", "))
}

// ShardDeadError reports an injected whole-shard outage: the device
// stopped answering. It is retryable — surviving shards can serve the
// work — and clears when the shard revives.
type ShardDeadError struct {
	Shard int // serving shard that died
}

func (e *ShardDeadError) Error() string {
	return fmt.Sprintf("fault: shard %d dead (injected outage)", e.Shard)
}

// Counters is a snapshot of what an Injector has done so far.
type Counters struct {
	BitFlips    int64 // transient single-bit flips injected
	DoubleFlips int64 // transient double-bit (uncorrectable) upsets
	StuckReads  int64 // readouts that hit a stuck cell
	Spikes      int64 // latency spikes injected
	DeadBatches int64 // batch attempts failed by the outage
	DeadProbes  int64 // probe attempts failed by the outage
}

// stuckKey addresses one 32-byte block that contains stuck cells.
type stuckKey struct {
	channel int
	bank    int
	row     uint32
	col     uint32
}

// Injector implements the device-side fault hooks for one Config. It
// satisfies hbm.ReadFault and memctrl.Delayer structurally, and is safe
// for concurrent use from parallel per-channel kernels: all decisions
// are pure hashes and all bookkeeping is atomic.
type Injector struct {
	cfg     Config
	seed    uint64
	anyRate float64 // FlipRate + DoubleFlipRate, precomputed
	stuck   map[stuckKey][]int

	bitFlips    atomic.Int64
	doubleFlips atomic.Int64
	stuckReads  atomic.Int64
	spikes      atomic.Int64
	deadBatches atomic.Int64
	deadProbes  atomic.Int64

	batches atomic.Int64 // batch attempts observed (outage schedule)
	probes  atomic.Int64 // failed probes accumulated toward revival
}

// New builds an injector for cfg.
func New(cfg Config) *Injector {
	in := &Injector{
		cfg:     cfg,
		seed:    mix(uint64(cfg.Seed) ^ 0x5bf0_3635),
		anyRate: cfg.FlipRate + cfg.DoubleFlipRate,
	}
	if len(cfg.Stuck) > 0 {
		in.stuck = make(map[stuckKey][]int, len(cfg.Stuck))
		for _, sb := range cfg.Stuck {
			k := stuckKey{channel: sb.Channel, bank: sb.Bank, row: sb.Row, col: sb.Col}
			in.stuck[k] = append(in.stuck[k], sb.Bit)
			sort.Ints(in.stuck[k])
		}
	}
	return in
}

// Config returns the profile the injector was built from.
func (in *Injector) Config() Config { return in.cfg }

// Counters snapshots the injection counts.
func (in *Injector) Counters() Counters {
	return Counters{
		BitFlips:    in.bitFlips.Load(),
		DoubleFlips: in.doubleFlips.Load(),
		StuckReads:  in.stuckReads.Load(),
		Spikes:      in.spikes.Load(),
		DeadBatches: in.deadBatches.Load(),
		DeadProbes:  in.deadProbes.Load(),
	}
}

// CorruptReadout flips bits in one 32-byte row-buffer readout. It is
// called by the hbm read path after the array copy and before the ECC
// decode (see hbm.ReadFault). data is sampled per 64-bit word — the ECC
// code word — so a "double flip" lands both bits in one code word and
// is guaranteed uncorrectable.
func (in *Injector) CorruptReadout(channel, bank int, row, col uint32, seq int64, data []byte) {
	if in.anyRate > 0 {
		for w := 0; w < len(data)/8; w++ {
			h := in.site(channel, bank, row, col, seq, w)
			u := float64(h>>11) * (1.0 / (1 << 53))
			if u >= in.anyRate {
				continue
			}
			h = mix(h)
			b1 := int(h & 63)
			if u < in.cfg.DoubleFlipRate {
				b2 := int((h >> 6) & 63)
				if b2 == b1 {
					b2 = (b1 + 1) & 63
				}
				flipBit(data, w, b1)
				flipBit(data, w, b2)
				in.doubleFlips.Add(1)
			} else {
				flipBit(data, w, b1)
				in.bitFlips.Add(1)
			}
		}
	}
	if in.stuck != nil {
		in.applyStuck(channel, bank, row, col, data)
	}
}

func (in *Injector) applyStuck(channel, bank int, row, col uint32, data []byte) {
	hit := false
	for _, ch := range [2]int{channel, -1} {
		if bits, ok := in.stuck[stuckKey{channel: ch, bank: bank, row: row, col: col}]; ok {
			for _, b := range bits {
				if b >= 0 && b < 8*len(data) {
					data[b/8] ^= 1 << (b % 8)
					hit = true
				}
			}
		}
	}
	if hit {
		in.stuckReads.Add(1)
	}
}

// flipBit inverts bit b (0-63) of 64-bit word w inside data.
func flipBit(data []byte, w, b int) {
	data[8*w+b/8] ^= 1 << (b % 8)
}

// ExtraIssueCycles injects per-channel command-issue latency spikes
// (see memctrl.Delayer): every SpikeEvery-th command on the channel
// issues SpikeCycles late. seq is the channel's own delayer call
// counter, so the schedule is deterministic and per-channel.
func (in *Injector) ExtraIssueCycles(channel int, seq, now int64) int64 {
	if in.cfg.SpikeEvery <= 0 || seq%in.cfg.SpikeEvery != 0 {
		return 0
	}
	in.spikes.Add(1)
	return in.cfg.SpikeCycles
}

// dead reports whether the outage schedule currently holds the shard
// down, given the number of batch attempts observed so far.
func (in *Injector) dead(batchesSeen int64) bool {
	if in.cfg.DieAfterBatches <= 0 || batchesSeen < in.cfg.DieAfterBatches {
		return false
	}
	return in.cfg.ReviveAfterProbes <= 0 || in.probes.Load() < in.cfg.ReviveAfterProbes
}

// BatchErr is called by the serving layer before each batch attempt on
// the shard. It returns ShardDeadError while the injected outage holds
// and nil otherwise, advancing the outage schedule by one attempt.
func (in *Injector) BatchErr() error {
	if in.cfg.DieAfterBatches <= 0 {
		return nil
	}
	n := in.batches.Add(1)
	if !in.dead(n) {
		return nil
	}
	in.deadBatches.Add(1)
	in.hang()
	return &ShardDeadError{Shard: in.cfg.Shard}
}

// ProbeErr is called by the serving layer's prober for each probation
// probe of the shard. While the outage holds it fails with
// ShardDeadError, and each failure counts toward ReviveAfterProbes;
// once enough probes have failed the outage lifts for good.
func (in *Injector) ProbeErr() error {
	if !in.dead(in.batches.Load()) {
		return nil
	}
	if in.cfg.ReviveAfterProbes > 0 {
		in.probes.Add(1)
	}
	in.deadProbes.Add(1)
	in.hang()
	return &ShardDeadError{Shard: in.cfg.Shard}
}

func (in *Injector) hang() {
	if in.cfg.HangMs > 0 {
		time.Sleep(time.Duration(in.cfg.HangMs) * time.Millisecond)
	}
}

// site hashes one injection site into 64 uniform bits.
func (in *Injector) site(channel, bank int, row, col uint32, seq int64, word int) uint64 {
	z := in.seed
	z = mix(z ^ uint64(channel)<<48 ^ uint64(bank))
	z = mix(z ^ uint64(row)<<32 ^ uint64(col))
	z = mix(z ^ uint64(seq)<<8 ^ uint64(word))
	return z
}

// mix is the splitmix64 finalizer: a cheap, high-quality 64-bit mixer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
