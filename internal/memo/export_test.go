package memo

import "repro/internal/compiler"

// FrontendLen is the number of artifacts the process-wide frontend cache
// holds.
func FrontendLen() int { return frontends.Len() }

// FrontendBound is the most artifacts the frontend cache may hold: its
// capacity rounded up to shard granularity.
func FrontendBound() int { return len(frontends.shards) * frontends.capPerShard }

// FrontendCapacity is the artifact cache's configured capacity.
const FrontendCapacity = frontendCapacity

// PlantFrontendCollision stores foreign's artifact under src's key, the
// shape an FNV-64a collision between the two sources would leave.
func PlantFrontendCollision(src, foreign string) {
	frontends.put(srcKey(HashSource(src)), text(foreign), compiler.FrontendResult(foreign))
}
