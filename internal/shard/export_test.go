package shard

import "rept/internal/core"

// ShardConfigs exposes the per-shard engine configs to the external tests
// (package shard_test), which import rept/internal/exper and so cannot
// live in package shard: exper times REPT through this package.
func (c Config) ShardConfigs() []core.Config { return c.shardConfigs() }
