package core

// The map-based race detector, exposed to the external core_test
// package, whose queue and KV fixtures import packages that import
// core.
var DetectEpochRacesMaps = detectEpochRacesMaps
