package walk

// MaskShardDown hands the router the same ctrlDown op onShardDown pushes
// for a dead link, so the coordinator's own flip path runs: the plan
// masks the shard dead at the next epoch, the survivors and attached
// readers learn the flip, and in-flight walkers are relaunched. The
// link-death bookkeeping (barrier exclusion, credit gate) is skipped —
// the shard's node keeps running and acking barriers, so a test can
// observe the flip without killing a process.
func (s *ShardedLiveService) MaskShardDown(shard int) {
	s.coord.pushCtrl(ctrlOp{kind: ctrlDown, shard: shard})
}
