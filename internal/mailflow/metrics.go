package mailflow

import "tasterschoice/internal/obs"

// Metrics observes a collection run. The zero value is fully inert,
// and a populated Metrics only counts — it never feeds back into the
// engine, so instrumented runs stay byte-identical to bare ones (the
// golden fingerprint tests run with Metrics enabled to pin this down).
type Metrics struct {
	// CampaignsPlanned counts campaigns through the plan stage.
	CampaignsPlanned *obs.Counter
	// Observations counts buffered feed observations replayed.
	Observations *obs.Counter
	// WebmailBatches counts webmail delivery batches enqueued.
	WebmailBatches *obs.Counter
	// WebmailMessages counts the messages in those batches.
	WebmailMessages *obs.Counter
	// DrainDepth is the batches-per-chunk distribution: how deep the
	// webmail queue ran before each drain.
	DrainDepth *obs.Histogram
}

// NewMetrics wires a Metrics to r. Safe with a nil registry.
func NewMetrics(r *obs.Registry) Metrics {
	m := Metrics{
		CampaignsPlanned: r.Counter("mailflow_campaigns_planned_total"),
		Observations:     r.Counter("mailflow_observations_total"),
		WebmailBatches:   r.Counter("mailflow_webmail_batches_total"),
		WebmailMessages:  r.Counter("mailflow_webmail_messages_total"),
		DrainDepth: r.Histogram("mailflow_webmail_drain_depth",
			[]float64{1, 4, 16, 64, 256, 1024, 4096, 16384}),
	}
	r.Describe("mailflow_campaigns_planned_total", "Campaigns through the plan stage.")
	r.Describe("mailflow_observations_total", "Buffered feed observations replayed.")
	r.Describe("mailflow_webmail_batches_total", "Webmail delivery batches enqueued.")
	r.Describe("mailflow_webmail_messages_total", "Messages in the enqueued webmail batches.")
	r.Describe("mailflow_webmail_drain_depth", "Webmail batches queued per chunk drain.")
	return m
}
