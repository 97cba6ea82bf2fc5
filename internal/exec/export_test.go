package exec

import "context"

// RunState is a tick-engine run state a test owns. Run runs on it as
// RunCtx runs on one from the pool, so a test can recycle one state
// across a chosen sequence of runs, or give each run a new one.
type RunState struct{ rs runState }

// Run is RunCtx on s.
func (s *RunState) Run(ctx context.Context, cfg Config) (*Result, error) {
	return s.rs.run(ctx, cfg)
}
