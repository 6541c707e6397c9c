package sim

// RaceEnabled is raceEnabled for the external test package (sim_test), whose
// allocation budgets skip under the race detector.
const RaceEnabled = raceEnabled

// ShuffleSchedules makes every one-worker run that starts before restore is
// called pop a seeded-random runnable rank, and wake ranks to a random end
// of the run queue (shuffleSeed). seed must not be zero.
func ShuffleSchedules(seed uint64) (restore func()) {
	shuffleSeed.Store(seed)
	return func() { shuffleSeed.Store(0) }
}

// CollectiveTour is collectiveTour for the external test package.
var CollectiveTour = collectiveTour
