package sim

// RaceEnabled is raceEnabled for the external test package (sim_test), whose
// allocation budgets skip under the race detector.
const RaceEnabled = raceEnabled
