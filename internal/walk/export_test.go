package walk

import "github.com/bingo-rw/bingo/internal/rebalance"

// Migrate commits one scripted block migration through the coordinator —
// the mechanism the rebalancer drives — and returns once the move has
// committed. The external differential tests use it to flip ownership at
// a chosen point of a tape instead of waiting for the planner to choose a
// move under load.
func (s *ShardedLiveService) Migrate(m rebalance.Move) error { return s.coord.Migrate(m) }
