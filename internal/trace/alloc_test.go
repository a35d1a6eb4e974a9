package trace

import "testing"

// maxAllocsPerJob budgets the synthetic generator. It writes straight
// into columns sized by a first pass over the job shapes, so a trace
// costs a fixed couple of dozen allocations whatever its size: 0.01 per
// job at 2000 jobs. The generator that built a Task object, an ID
// string and a task slice per job sat near 24 per job.
const maxAllocsPerJob = 0.1

// TestGenerateAllocBudget regression-guards trace generation.
func TestGenerateAllocBudget(t *testing.T) {
	cfg := DefaultGenConfig(3, 2000)
	allocs := testing.AllocsPerRun(3, func() {
		Generate(cfg)
	})
	perJob := allocs / float64(cfg.Jobs)
	t.Logf("%.0f allocs for %d jobs = %.4f allocs/job", allocs, cfg.Jobs, perJob)
	if perJob > maxAllocsPerJob {
		t.Errorf("generator allocates %.4f per job, budget %g", perJob, maxAllocsPerJob)
	}
}

// TestIDFormatting pins the hand-rolled ID formatters to the fmt
// formats they replaced.
func TestIDFormatting(t *testing.T) {
	cases := []struct {
		i    int
		want string
	}{
		{0, "j000000"}, {7, "j000007"}, {123456, "j123456"}, {9999999, "j9999999"},
	}
	for _, c := range cases {
		if got := string(appendJobID(nil, c.i)); got != c.want {
			t.Errorf("appendJobID(%d) = %q, want %q", c.i, got, c.want)
		}
	}
	taskCases := []struct {
		k    int
		want string
	}{
		{0, "j000001.t00"}, {5, "j000001.t05"}, {42, "j000001.t42"}, {123, "j000001.t123"},
	}
	for _, c := range taskCases {
		if got := string(appendTaskID(nil, []byte("j000001"), c.k)); got != c.want {
			t.Errorf("appendTaskID(%d) = %q, want %q", c.k, got, c.want)
		}
	}
}
