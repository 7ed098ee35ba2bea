package dnsbl_test

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"tasterschoice/internal/dnsbl"
	"tasterschoice/internal/domain"
	"tasterschoice/internal/faultnet"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/resilient"
	"tasterschoice/internal/simclock"
)

// TestChaosLookupsSurviveUDPLoss drives the full client/server exchange
// against the plane server
// through a seeded fault injector dropping 30% of datagrams in each
// direction (so only ~half the attempts complete), plus latency jitter.
// Every lookup must still succeed within the configured retry budget,
// with the correct answer — across three seeds, deterministically.
func TestChaosLookupsSurviveUDPLoss(t *testing.T) {
	feed := feeds.New("dbl", feeds.KindBlacklist, false, false)
	listed := make([]domain.Name, 0, 16)
	for i := 0; i < 16; i++ {
		d := domain.Name(fmt.Sprintf("spam%02d.example", i))
		feed.ObserveOnce(simclock.PaperStart, d)
		listed = append(listed, d)
	}
	addr, _ := servePlane(t, "dbl.test", feed)

	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultnet.New(faultnet.Faults{
				Seed:     seed,
				DropProb: 0.30,
				Latency:  time.Millisecond,
				Jitter:   2 * time.Millisecond,
			})
			c := dnsbl.NewClient(addr, "dbl.test", seed)
			c.Dial = inj.Dial
			c.Timeout = 120 * time.Millisecond
			c.Retries = 9 // retry budget: P(all 10 attempts die) ~ 0.51^10 < 0.2%
			c.Backoff = resilient.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}

			for i, d := range listed {
				got, err := c.Listed(d)
				if err != nil {
					t.Fatalf("lookup %d (%s) exceeded the retry budget: %v", i, d, err)
				}
				if !got {
					t.Fatalf("%s not listed under chaos", d)
				}
			}
			if unlisted, err := c.Listed("benign.example"); err != nil || unlisted {
				t.Fatalf("benign lookup under chaos: listed=%v err=%v", unlisted, err)
			}
			if inj.Injected() == 0 {
				t.Fatal("no faults fired: the chaos run tested nothing")
			}
		})
	}
}

// TestChaosReasonUnderLoss exercises the TXT path under the same loss.
func TestChaosReasonUnderLoss(t *testing.T) {
	feed := feeds.New("dbl", feeds.KindBlacklist, false, false)
	feed.ObserveOnce(simclock.PaperStart, "cheappills.com")
	addr, _ := servePlane(t, "dbl.test", feed)

	inj := faultnet.New(faultnet.Faults{Seed: 4, DropProb: 0.30})
	c := dnsbl.NewClient(addr, "dbl.test", 4)
	c.Dial = inj.Dial
	c.Timeout = 120 * time.Millisecond
	c.Retries = 9
	c.Backoff = resilient.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	reason, err := c.Reason("cheappills.com")
	if err != nil {
		t.Fatal(err)
	}
	if reason == "" {
		t.Fatal("no TXT reason under chaos")
	}
}

// TestTypedTimeout verifies that an attempt dying on the per-attempt
// deadline surfaces as the typed ErrTimeout (still a net.Error), so
// callers can tell drop-retry from hard failure.
func TestTypedTimeout(t *testing.T) {
	// A socket nobody answers: every attempt times out.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	c := dnsbl.NewClient(pc.LocalAddr().String(), "dbl.test", 5)
	c.Timeout = 50 * time.Millisecond
	c.Retries = 1
	c.Backoff = resilient.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	_, err = c.Listed("anything.example")
	if err == nil {
		t.Fatal("lookup against a silent server succeeded")
	}
	if !errors.Is(err, dnsbl.ErrTimeout) {
		t.Fatalf("err = %v, want errors.Is(err, dnsbl.ErrTimeout)", err)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("typed timeout lost the net.Error contract: %v", err)
	}
}

// TestHardFailureIsNotTimeout: a kernel-refused exchange (ICMP port
// unreachable) must not be classified as ErrTimeout.
func TestHardFailureIsNotTimeout(t *testing.T) {
	// Bind and immediately close to get a dead port.
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := pc.LocalAddr().String()
	pc.Close()

	c := dnsbl.NewClient(deadAddr, "dbl.test", 6)
	c.Timeout = 100 * time.Millisecond
	c.Retries = 1
	c.Backoff = resilient.Backoff{Base: time.Millisecond, Max: time.Millisecond}
	_, err = c.Listed("anything.example")
	if err == nil {
		t.Skip("kernel did not report the dead UDP port; nothing to classify")
	}
	var nerr net.Error
	isTimeout := errors.As(err, &nerr) && nerr.Timeout()
	if errors.Is(err, dnsbl.ErrTimeout) != isTimeout {
		t.Fatalf("classification mismatch: err=%v, net timeout=%v, ErrTimeout=%v",
			err, isTimeout, errors.Is(err, dnsbl.ErrTimeout))
	}
}
