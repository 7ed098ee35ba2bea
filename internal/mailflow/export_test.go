package mailflow

// Fingerprint exposes the golden result hash to the external test
// package, whose tests build worlds through internal/simulate.
var Fingerprint = fingerprint
