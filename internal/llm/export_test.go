package llm

// CachedBlindHypotheses is BlindHypotheses through the process-wide
// cache Model.Repair reads, for the external oracle test.
var CachedBlindHypotheses = blind.Get
