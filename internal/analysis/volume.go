package analysis

// VolumeRow is one feed's bar in Figure 3: the share of incoming-mail
// spam volume covered by the feed's live (or tagged) domains, plus the
// share carried by the feed's Alexa/ODP domains — the stacked portion
// showing what exclusion removed.
type VolumeRow struct {
	Name string
	// LivePct is oracle volume of the feed's live domains over the
	// figure total; LiveBenignPct is the feed's Alexa/ODP volume over
	// the same total.
	LivePct       float64
	LiveBenignPct float64
	// TaggedPct / TaggedBenignPct: same for the tagged plot, where
	// the benign portion counts only Alexa/ODP domains that would
	// have been tagged (redirector abuse).
	TaggedPct       float64
	TaggedBenignPct float64
}

// VolumeCoverage computes Figure 3. The live-plot denominator is the
// oracle volume of the union of all live domains plus all feed-occurring
// Alexa/ODP domains; the tagged plot restricts the benign side to
// crawler-tagged benign domains.
func VolumeCoverage(ds *Dataset) []VolumeRow {
	ix := ds.Index()
	o := ds.Result.Oracle
	// sums holds one set's oracle volume per plot segment.
	type sums struct{ live, benign, tagged, benignTagged int64 }
	add := func(t *sums, id int) {
		l, v := ix.label(id), o.VolumeID(ix.sym(id))
		switch {
		case l.Live():
			t.live += v
		case l.Benignish():
			t.benign += v
			if l.Tagged {
				t.benignTagged += v
			}
		}
		if l.TaggedClean() {
			t.tagged += v
		}
	}
	// Every labeled domain occurs in some feed, so the unions over the
	// feeds are sums over all ids.
	var all sums
	for id := range ds.Labels.rows {
		add(&all, id)
	}
	liveTotal := float64(all.live + all.benign)
	taggedTotal := float64(all.tagged + all.benignTagged)

	order := ds.Result.Order
	out := make([]VolumeRow, len(order))
	for i, name := range order {
		var f sums
		ix.feedBits[name].Each(func(id int) { add(&f, id) })
		row := VolumeRow{Name: name}
		if liveTotal > 0 {
			row.LivePct = float64(f.live) / liveTotal
			row.LiveBenignPct = float64(f.benign) / liveTotal
		}
		if taggedTotal > 0 {
			row.TaggedPct = float64(f.tagged) / taggedTotal
			row.TaggedBenignPct = float64(f.benignTagged) / taggedTotal
		}
		out[i] = row
	}
	return out
}
