package hbm

import (
	"fmt"

	"pimsim/internal/ecc"
)

// The on-die ECC datapath (Section VIII). Every functional 32-byte bank
// access funnels through bankReadData / bankWriteData so the same engine
// serves host reads, broadcast accesses and the PIM execution units —
// possible precisely because PIM accesses memory at the host's
// granularity. The one exception is a PIM operand read with ECC off and no
// fault injector attached: there is nothing to check or corrupt, so
// ReadBanks hands the unit the open row's bytes in place.

// UncorrectableError reports a multi-bit error the SEC-DED engine
// detected but could not correct. The poisoned data is never forwarded;
// the error propagates up through memctrl, the runtime and blas to the
// serving layer, which treats it as retryable (another shard holds a
// clean replica of the same weights).
type UncorrectableError struct {
	Channel int    // pseudo channel index within the device
	Bank    int    // flat bank index (bg*BanksPerGroup + bank)
	Row     uint32 // open row the readout came from
	Col     uint32 // 32-byte column within the row
}

func (e *UncorrectableError) Error() string {
	return fmt.Sprintf("hbm: uncorrectable ECC error at ch%d bank %d row %d col %d",
		e.Channel, e.Bank, e.Row, e.Col)
}

// ReadFault is the fault-injection hook on the row-buffer readout path.
// When attached (AttachFault), it is invoked for every functional
// 32-byte readout with the freshly copied data, after the array read
// and before the ECC decode — corrupting the readout, never the stored
// cells, exactly like a transient upset or weak cell. seq is the
// channel's monotonically increasing BankReads count, giving the
// injector a deterministic, scheduling-independent stream position.
// Implementations must be safe for concurrent calls from different
// channels. internal/fault provides the standard implementation.
type ReadFault interface {
	CorruptReadout(channel, bank int, row, col uint32, seq int64, data []byte)
}

// bankWriteData stores a 32-byte block at the open row's column,
// generating ECC check bits when the engine is enabled.
func (p *PseudoChannel) bankWriteData(b *bank, col uint32, data []byte) error {
	return p.writeBlock(b, b.row(b.openRow, p.cfg.RowBytes), col, data)
}

// writeBlock is bankWriteData with the open row's storage, row, looked up
// by the caller (once for a run of columns).
func (p *PseudoChannel) writeBlock(b *bank, row []byte, col uint32, data []byte) error {
	if len(data) != p.cfg.AccessBytes {
		return fmt.Errorf("hbm: write payload %dB, want %dB", len(data), p.cfg.AccessBytes)
	}
	off := int(col) * p.cfg.AccessBytes
	copy(row[off:], data)
	if p.cfg.ECC {
		par := ecc.EncodeBlock(data)
		copy(b.parityRow(b.openRow, p.cfg.RowBytes)[off/8:], par[:])
	}
	return nil
}

// bankReadData loads a 32-byte block from the open row's column into buf,
// applying the attached fault injector to the readout copy and then
// checking and correcting through the ECC engine when enabled. A
// double-bit error is reported as a typed *UncorrectableError (the
// poisoned data is not forwarded silently).
func (p *PseudoChannel) bankReadData(b *bank, bankIdx int, col uint32, buf []byte) error {
	return p.readBlock(b, bankIdx, b.row(b.openRow, p.cfg.RowBytes), col, buf)
}

// readBlock is bankReadData with the open row's storage, row, looked up
// by the caller (once for a run of columns).
func (p *PseudoChannel) readBlock(b *bank, bankIdx int, row []byte, col uint32, buf []byte) error {
	size := p.cfg.AccessBytes
	off := int(col) * size
	copy(buf[:size], row[off:])
	if p.fault != nil {
		p.fault.CorruptReadout(p.id, bankIdx, b.openRow, col, p.stats.BankReads, buf[:size])
	}
	if !p.cfg.ECC {
		return nil
	}
	var par [ecc.WordsPerBlock]uint8
	copy(par[:], b.parityRow(b.openRow, p.cfg.RowBytes)[off/8:])
	corrected, uncorrectable := ecc.DecodeBlock(buf[:size], par)
	p.stats.ECCCorrected += int64(corrected)
	if uncorrectable {
		p.stats.ECCUncorrectable++
		return &UncorrectableError{Channel: p.id, Bank: bankIdx, Row: b.openRow, Col: col}
	}
	if corrected > 0 {
		// Scrub: write the corrected data (and fresh parity) back.
		copy(row[off:], buf[:size])
		fresh := ecc.EncodeBlock(buf[:size])
		copy(b.parityRow(b.openRow, p.cfg.RowBytes)[off/8:], fresh[:])
	}
	return nil
}

// InjectBitError flips one stored data bit without touching the check
// bits — a fault-injection hook for ECC testing. bit indexes into the
// 256-bit block (0-255).
func (p *PseudoChannel) InjectBitError(bg, bankAddr int, row, col uint32, bit int) error {
	if !p.cfg.Functional {
		return fmt.Errorf("hbm: fault injection needs a functional device")
	}
	if bit < 0 || bit >= 8*p.cfg.AccessBytes {
		return fmt.Errorf("hbm: bit %d out of range", bit)
	}
	b := &p.banks[p.flat(bg, bankAddr)]
	data := b.row(row, p.cfg.RowBytes)
	off := int(col)*p.cfg.AccessBytes + bit/8
	data[off] ^= 1 << (bit % 8)
	return nil
}
