package main

import (
	"repro/internal/auxdata"
	"repro/internal/seviri"
)

// worldSeed fixes the region's geography and auxiliary datasets and the
// fire day: the service core.NewService(worldSeed, ...) builds renders
// seviri.GenerateScenario over world worldSeed with scenario seed
// worldSeed+1, and so does the benchmark.
const worldSeed = 42

// benchScenario is the program's own fire day with the seed's sensor
// noise: the same fires and false-alarm sources, so the same amount
// burning at each hour, which the service's work scales with, while
// every pixel value of every scene, and so the marginal detections,
// change with the seed. Seed 42 renders exactly the day
// core.NewService(42, ...) does. Moving the sources with the seed
// instead, even by whole pixels, changed the refined hotspot count of
// the window by up to a tenth.
func benchScenario(w *auxdata.World, seed int64) *seviri.Scenario {
	sc := seviri.GenerateScenario(w, worldSeed+1, scenarioConfig())
	sc.Seed = seed + 1
	return sc
}

// benchSimulator renders the seed's fire day over the world the
// service builds.
func benchSimulator(seed int64) *seviri.Simulator {
	return seviri.NewSimulator(benchScenario(auxdata.Generate(worldSeed), seed))
}
