package mailflow

import (
	"time"

	"tasterschoice/internal/ecosystem"
	"tasterschoice/internal/feeds"
	"tasterschoice/internal/randutil"
	"tasterschoice/internal/simclock"
	"tasterschoice/internal/symtab"
)

// Campaign planning is the parallel half of the engine: planCampaign
// draws everything a campaign contributes — feed arrivals, webmail
// batches, blacklist listings — from the campaign's private RNG stream
// and buffers it in a campaignPlan instead of touching shared state.
// Workers claim campaigns one at a time (parallel.ForEach), so a
// mega-campaign occupies one worker while the others drain the rest of
// the chunk; the engine then replays the buffered plans into the feeds
// serially, in campaign ID order, so order-sensitive feed semantics
// (dedup windows, first-seen sample URLs, tap streams) behave
// identically for every worker count.
//
// A plan is run-encoded. Each planObserve call becomes one obsRun — a
// (feed, domain, URL) triple plus the arrival times it drew — and each
// blacklist listing a one-time run; the rare chaff co-arrivals sit in a
// side list, tagged with their position in the run, and replay emits
// each right after its arrival. Run times and webmail batch times are
// drawn straight into the plan's timeArena, whose blocks never move, so
// buffering an arrival costs its 8-byte time and nothing is copied or
// regrown however large a campaign is. The engine reuses each plan,
// arena blocks included, across chunks, so a steady-state planning pass
// allocates almost nothing. Planning never interns — every symbol it
// needs was assigned serially (world generation, or the engine's serial
// phases) — which is what keeps ID assignment independent of the worker
// count.

// Feed indexes into FeedNames, the canonical order.
const (
	fHu = iota
	fDbl
	fUribl
	fMx1
	fMx2
	fMx3
	fAc1
	fAc2
	fBot
	fHyb
)

// obsRun is one feed's arrivals of one domain and URL, at times in
// draw order: a planObserve call, or a blacklist listing (once, one
// time). Its chaff co-arrivals are the next nchaff entries of the
// plan's chaff list.
type obsRun struct {
	times  []int64
	d, url symtab.ID
	nchaff int32
	// feed indexes FeedNames; once selects ObserveOnce (blacklists).
	feed uint8
	once bool
}

// chaffObs is a benign domain an arrival also named: at is the
// arrival's index in its run's times.
type chaffObs struct {
	at     int32
	d, url symtab.ID
}

// campaignPlan buffers one campaign's entire contribution. The engine
// reuses plans across chunks: reset truncates every list and rewinds
// the arena but keeps all capacity.
type campaignPlan struct {
	runs    []obsRun
	chaff   []chaffObs
	batches []wmBatch
	// arena holds every run's and batch's times; the engine drains all
	// batches before the plan is reused.
	arena timeArena
}

// reset empties the plan for reuse, keeping capacity.
func (p *campaignPlan) reset() {
	p.runs = p.runs[:0]
	p.chaff = p.chaff[:0]
	p.batches = p.batches[:0]
	p.arena.reset()
}

// replay feeds the plan's arrivals into dst (indexed like FeedNames) in
// the order planning drew them, each chaff co-arrival right after the
// arrival that carried it, and returns the number of arrivals.
func (p *campaignPlan) replay(dst *[fHyb + 1]*feeds.Feed) int64 {
	n := int64(len(p.chaff))
	chaff := p.chaff
	for ri := range p.runs {
		r := &p.runs[ri]
		n += int64(len(r.times))
		f := dst[r.feed]
		if r.once {
			for _, t := range r.times {
				f.ObserveOnceID(t, r.d)
			}
			continue
		}
		rc := chaff[:r.nchaff]
		chaff = chaff[r.nchaff:]
		for i, t := range r.times {
			f.ObserveID(t, r.d, r.url)
			if len(rc) > 0 && int(rc[0].at) == i {
				f.ObserveID(t, rc[0].d, rc[0].url)
				rc = rc[1:]
			}
		}
	}
	return n
}

// Arena block sizes, in times: a plan's first block is small, so the
// thousands of small campaigns stay cheap, and each later block doubles
// up to the cap, so a mega-campaign's millions of times take
// few blocks and little tail waste.
const (
	arenaMinBlock = 1 << 10
	arenaMaxBlock = 1 << 20
)

// timeArena hands out contiguous time slices carved from blocks that
// never move: a slice, once handed out, keeps its backing memory until
// reset, and growth adds a block instead of copying. reset rewinds to
// the first block; blocks are kept and refilled in order.
type timeArena struct {
	blocks [][]int64
	// cur indexes the block being carved; off is its used length.
	cur, off int
}

// alloc returns a slice of n times (contents unspecified) that stays
// valid until the next reset.
func (a *timeArena) alloc(n int) []int64 {
	if n <= 0 {
		return nil
	}
	for ; a.cur < len(a.blocks); a.cur, a.off = a.cur+1, 0 {
		if b := a.blocks[a.cur]; a.off+n <= len(b) {
			a.off += n
			return b[a.off-n : a.off : a.off]
		}
	}
	size := arenaMinBlock
	if k := len(a.blocks); k > 0 {
		size = min(2*len(a.blocks[k-1]), arenaMaxBlock)
	}
	b := make([]int64, max(size, n))
	a.blocks = append(a.blocks, b)
	a.off = n
	return b[:n:n]
}

func (a *timeArena) reset() { a.cur, a.off = 0, 0 }

// planCampaign draws one campaign's output into p. It is safe to call
// concurrently for distinct campaigns: every random draw comes from the
// campaign's own named stream (chaff included, via chaffIDWith), and
// nothing shared is written.
func (e *Engine) planCampaign(p *campaignPlan, c *ecosystem.Campaign) {
	if c.Class == ecosystem.ClassWebOnly {
		e.planWebOnly(p, c)
		return
	}
	rng := randutil.NamedInt(e.Cfg.Seed, "campaign-", c.ID)

	// Per-campaign visibility draws: whether each honeypot's or
	// account feed's addresses made it onto this campaign's lists.
	var acIncl [2]bool
	var acMult [2]float64
	for i := 0; i < 2; i++ {
		acIncl[i] = rng.Bool(e.Cfg.AcInclusionProb[i])
		sigma := e.Cfg.AcSpreadSigma[i]
		acMult[i] = rng.LogNormal(-sigma*sigma/2, sigma)
	}
	hybIncluded := rng.Bool(e.hybInclusion(c))

	for si := range c.Domains {
		slot := &c.Domains[si]
		w, frac := e.slotWindow(slot)
		if frac == 0 {
			continue
		}
		v := c.Volume * slot.Weight * frac
		e.planSlot(p, &rng, c, slot, w, v, acIncl, acMult, hybIncluded)
	}
}

func (e *Engine) planSlot(p *campaignPlan, rng *randutil.RNG, c *ecosystem.Campaign,
	slot *ecosystem.AdDomain, w simclock.Window, v float64,
	acIncl [2]bool, acMult [2]float64, hybIncluded bool) {
	cfg := &e.Cfg
	d, url := slot.Sym, slot.URLSym

	if c.Class == ecosystem.ClassLoud {
		b := &e.World.Botnets[c.Botnet]
		lead, blast := e.stealthSplit(rng, slot, w)
		// The very largest blasts are signatured outright by the
		// webmail provider; their mail is counted (the oracle sees
		// incoming volume) but never reaches an inbox.
		prefiltered := v > cfg.HuPrefilterVolume && rng.Bool(cfg.HuPrefilterProb)
		// MX honeypots: brute-force list coverage, blast phase only.
		// Inclusion is drawn per ad slot: spammers refresh their
		// finite target lists with each domain rotation, so a
		// honeypot can miss one rotation and catch the next.
		for i, fi := range [3]uint8{fMx1, fMx2, fMx3} {
			if !rng.Bool(e.Cfg.MXInclusionProb[i]) {
				continue
			}
			n := rng.Poisson(v * e.mxExp[i][c.Botnet] * b.BruteForceFrac)
			e.planObserve(p, rng, fi, blast, n, d, url)
		}
		// Honey accounts: harvested-list coverage, blast phase only.
		for i, fi := range [2]uint8{fAc1, fAc2} {
			if !acIncl[i] {
				continue
			}
			n := rng.Poisson(v * cfg.AcExposure[i] * acMult[i] * b.HarvestedFrac)
			e.planObserve(p, rng, fi, blast, n, d, url)
		}
		// Bot monitor: captured output of monitored botnets.
		if b.Monitored {
			n := rng.Poisson(v * cfg.BotCaptureRate)
			e.planObserve(p, rng, fBot, blast, n, d, url)
		}
		// Hybrid mail sink.
		if hybIncluded {
			n := rng.Poisson(v * cfg.HybExposure)
			e.planObserve(p, rng, fHyb, blast, n, d, url)
		}
		// Webmail: the stealth trickle during the lead-in — which
		// evades filters like quiet spam, since the domain is not yet
		// known to them — then the blast's webmail share.
		webmailRate := v * cfg.WebmailExposure * b.WebmailFrac
		if lead.End.After(lead.Start) {
			nt := rng.Poisson(webmailRate * cfg.StealthTrickle)
			p.batches = append(p.batches, wmBatch{
				d: d, class: ecosystem.ClassQuiet,
				times: uniformTimesSortedInto(p, rng, lead, nt), prefiltered: prefiltered,
			})
		}
		if blast.End.After(blast.Start) {
			nb := rng.Poisson(webmailRate)
			p.batches = append(p.batches, wmBatch{
				d: d, class: c.Class,
				times: uniformTimesSortedInto(p, rng, blast, nb), prefiltered: prefiltered,
			})
		}
	} else {
		// Quiet and tiny campaigns: targeted lists are nearly all
		// webmail users; honeypots effectively never see them.
		exposure := cfg.QuietWebmailExposure
		switch {
		case c.Class == ecosystem.ClassTiny:
			exposure = cfg.TinyWebmailExposure
		case c.Program < 0:
			exposure = cfg.OtherQuietWebmailExposure
		}
		n := rng.Poisson(v * exposure)
		p.batches = append(p.batches, wmBatch{
			d: d, class: c.Class, times: uniformTimesSortedInto(p, rng, w, n),
		})
		if hybIncluded {
			k := rng.Poisson(cfg.HybQuietObs)
			e.planObserve(p, rng, fHyb, w, k, d, url)
		}
	}

	e.planBlacklist(p, rng, fDbl, &cfg.DBL, c, slot, w)
	e.planBlacklist(p, rng, fUribl, &cfg.URIBL, c, slot, w)
}

// planObserve buffers n arrivals of a URL-reporting feed, with chaff,
// as one run. Empty windows observe nothing. All n times are drawn
// before the per-time chaff draws, matching the original draw order.
func (e *Engine) planObserve(p *campaignPlan, rng *randutil.RNG, feed uint8,
	w simclock.Window, n int, d, url symtab.ID) {
	if !w.End.After(w.Start) || n <= 0 {
		return
	}
	times := p.arena.alloc(n)
	uniformTimesNanos(rng, w, times)
	nchaff := len(p.chaff)
	if e.Cfg.ChaffProb > 0 {
		for i := range times {
			if !rng.Bool(e.Cfg.ChaffProb) {
				continue
			}
			if cd, curl, ok := e.chaffIDWith(rng); ok {
				p.chaff = append(p.chaff, chaffObs{at: int32(i), d: cd, url: curl})
			}
		}
	}
	p.runs = append(p.runs, obsRun{times: times, d: d, url: url,
		nchaff: int32(len(p.chaff) - nchaff), feed: feed})
}

// planWebOnly buffers the hybrid feed's web-spam discoveries.
func (e *Engine) planWebOnly(p *campaignPlan, c *ecosystem.Campaign) {
	rng := randutil.NamedInt(e.Cfg.Seed, "campaign-", c.ID)
	for si := range c.Domains {
		slot := &c.Domains[si]
		w, frac := e.slotWindow(slot)
		if frac == 0 {
			continue
		}
		days := w.Duration().Hours() / 24
		n := rng.Poisson(e.Cfg.HybWebObsPerDay * days)
		if n == 0 && rng.Bool(0.7) {
			n = 1 // a crawler that found the domain at all logs it once
		}
		e.planObserve(p, &rng, fHyb, w, n, slot.Sym, slot.URLSym)
	}
}

// planBlacklist buffers a blacklist's listing decision for a slot.
func (e *Engine) planBlacklist(p *campaignPlan, rng *randutil.RNG, feed uint8,
	bc *BlacklistConfig, c *ecosystem.Campaign, slot *ecosystem.AdDomain, w simclock.Window) {
	if !rng.Bool(blacklistClassProb(bc, c, slot)) {
		return
	}
	latency := rng.LogNormal(0, bc.LatencySigma) * bc.LatencyMedianHours
	at := w.Start.UnixNano() + int64(latency*float64(time.Hour))
	if at < e.winStartN {
		at = e.winStartN
	}
	if at >= e.winEndN {
		return
	}
	times := p.arena.alloc(1)
	times[0] = at
	p.runs = append(p.runs, obsRun{times: times, d: slot.Sym, feed: feed, once: true})
}
