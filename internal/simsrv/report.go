package simsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/sim"
)

// Report is the merged result document of one job. It carries no
// job-local identity (no ID, no timestamps): the same spec merged from
// the same per-run results is byte-identical whether the sweep ran
// uninterrupted or resumed across any number of restarts. The server
// never builds one with its runs filled: writeReport streams the same
// bytes from the cache.
type Report struct {
	SpecHash      string          `json:"spec_hash"`
	EngineVersion string          `json:"engine_version"`
	Spec          json.RawMessage `json:"spec"`
	Runs          []ReportRun     `json:"runs"`
}

// ReportRun is one run's slot in the merged report.
type ReportRun struct {
	Index  int             `json:"index"`
	Seed   uint64          `json:"seed"`
	Result json.RawMessage `json:"result"`
}

// writeReport writes a done job's report: the header, from the job's
// normalized spec sp and its stored bytes raw, then one slot per run
// around the cache entry keys[i] copied as is. Because every entry is
// canonical, the bytes equal json.Marshal(Report) of the same runs, and
// no more than one copy buffer of them is in memory.
func (c *Cache) writeReport(w io.Writer, sp sim.JobSpec, raw json.RawMessage, keys []string) error {
	h, err := sp.SpecHash()
	if err != nil {
		return err
	}
	buf, err := json.Marshal(Report{SpecHash: h, EngineVersion: sim.Version, Spec: raw, Runs: []ReportRun{}})
	if err != nil {
		return err
	}
	buf = buf[:len(buf)-len("]}")] // leave the runs array open
	for i, key := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = fmt.Appendf(buf, `{"index":%d,"seed":%d,"result":`, i, sp.RunSeed(i))
		if _, err := w.Write(buf); err != nil {
			return err
		}
		f, err := os.Open(c.path(key))
		if err != nil {
			return err
		}
		_, err = io.Copy(w, f)
		f.Close()
		if err != nil {
			return err
		}
		buf = append(buf[:0], '}')
	}
	_, err = w.Write(append(buf, "]}"...))
	return err
}
