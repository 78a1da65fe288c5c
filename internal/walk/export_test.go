package walk

// Migrate commits one scripted block migration through the coordinator
// and returns once the move has committed. The external differential
// tests use it to flip ownership at a chosen point of a tape.
func (s *ShardedLiveService) Migrate(block uint64, to int) error { return s.coord.Migrate(block, to) }
