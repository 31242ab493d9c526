package memctrl

import (
	"testing"

	"pimsim/internal/hbm"
	"pimsim/internal/metrics"
)

// NextEvent/SkipToNextEvent contract tests: the event-driven core rests
// on "between Now and NextEvent nothing in the channel moves", so these
// pin the bounds — never behind the clock, never beyond the refresh
// deadline, and covering timer expiries and the data-bus horizon.

func newEventTestChannel(t *testing.T) (*Channel, hbm.Config) {
	t.Helper()
	cfg := hbm.HBM2Config(1000)
	cfg.Functional = false
	return NewChannel(hbm.MustNewDevice(cfg).PCH(0), cfg, metrics.New(1), 0), cfg
}

// A fresh channel has no running timers and no data in flight: the only
// future event is the first refresh deadline.
func TestNextEventQuiescentIsRefreshDeadline(t *testing.T) {
	ch, cfg := newEventTestChannel(t)
	if got, want := ch.NextEvent(), int64(cfg.Timing.REFI); got != want {
		t.Fatalf("NextEvent on a fresh channel = %d, want first refresh deadline %d", got, want)
	}
}

// After an ACT the bank timers are running: NextEvent must surface the
// earliest expiry, which lands strictly after the clock and well before
// the refresh deadline.
func TestNextEventSeesTimerExpiry(t *testing.T) {
	ch, _ := newEventTestChannel(t)
	if _, err := ch.Issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: 0, Row: 3}); err != nil {
		t.Fatal(err)
	}
	next := ch.NextEvent()
	if next <= ch.Now() {
		t.Fatalf("NextEvent = %d not after clock %d with timers running", next, ch.Now())
	}
	if want := ch.pch.NextTimerExpiry(ch.Now()); next != want {
		t.Fatalf("NextEvent = %d, want earliest timer expiry %d", next, want)
	}
}

// A column command puts data on the bus; NextEvent must not jump past
// the transfer's completion.
func TestNextEventBoundsDataHorizon(t *testing.T) {
	ch, _ := newEventTestChannel(t)
	if _, err := ch.Issue(hbm.Command{Kind: hbm.CmdACT, BG: 0, Bank: 0, Row: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Issue(hbm.Command{Kind: hbm.CmdRD, BG: 0, Bank: 0, Col: 5}); err != nil {
		t.Fatal(err)
	}
	if ch.lastDataEnd <= ch.Now() {
		t.Fatalf("test setup: no data in flight (lastDataEnd %d, now %d)", ch.lastDataEnd, ch.Now())
	}
	if next := ch.NextEvent(); next > ch.lastDataEnd {
		t.Fatalf("NextEvent = %d jumped past the data horizon %d", next, ch.lastDataEnd)
	}
}

// Repeatedly skipping must advance the clock monotonically, never
// overshoot the refresh deadline, and eventually land on it and service
// the refresh — with no demand commands issued at all.
func TestSkipToNextEventReachesRefresh(t *testing.T) {
	ch, _ := newEventTestChannel(t)
	if _, err := ch.Issue(hbm.Command{Kind: hbm.CmdACT, BG: 1, Bank: 2, Row: 7}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Issue(hbm.Command{Kind: hbm.CmdPRE, BG: 1, Bank: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64 && ch.Refreshes() == 0; i++ {
		prev := ch.Now()
		next := ch.NextEvent()
		if next < prev {
			t.Fatalf("NextEvent = %d behind clock %d", next, prev)
		}
		if next > ch.nextRefresh {
			t.Fatalf("NextEvent = %d beyond refresh deadline %d", next, ch.nextRefresh)
		}
		if _, err := ch.SkipToNextEvent(); err != nil {
			t.Fatal(err)
		}
		if ch.Now() < prev {
			t.Fatalf("SkipToNextEvent moved the clock backwards: %d -> %d", prev, ch.Now())
		}
		if ch.Now() == prev && ch.Refreshes() == 0 {
			t.Fatalf("SkipToNextEvent did not advance a non-quiescent channel at cycle %d", prev)
		}
	}
	if ch.Refreshes() == 0 {
		t.Fatal("skipping never reached the refresh deadline")
	}
}

// Idle on a quiet scheduler uses the skip: refresh debt is paid during
// the quiet period instead of stalling the next demand burst.
func TestIdleServicesRefreshDuringQuietTime(t *testing.T) {
	ch, cfg := newEventTestChannel(t)
	s := NewScheduler(ch, cfg)
	for i := 0; i < 8 && ch.Refreshes() == 0; i++ {
		if err := s.Idle(16); err != nil {
			t.Fatal(err)
		}
	}
	if ch.Refreshes() == 0 {
		t.Fatal("Idle never serviced a refresh on a quiet channel")
	}
}
