package main

import (
	"strconv"

	"github.com/hpcobs/gosoma/internal/core"
)

// check compares the service's final state with what the generator wrote,
// adding comparisons and mismatches to a. Every producer must have been
// flushed and stopped.
func (e *env) check(a *accounting) {
	compare := func(got float64, ok bool, want float64) {
		a.checks++
		if !ok || got != want {
			a.mismatches++
		}
	}
	// Probe markers: the newest marker is the value of the probe path.
	t, err := e.reader.Query(core.NSHardware, probePath)
	if err != nil {
		compare(0, false, 0)
	} else {
		v, ok := leafFloat(t)
		compare(v, ok, float64(e.marker.Load()))
	}
	if e.w.batched {
		for _, i := range e.in.checks {
			t, err := e.reader.Query(core.NSHardware, e.in.sensors[i])
			if err != nil {
				compare(0, false, 0)
				continue
			}
			v, ok := leafFloat(t)
			compare(v, ok, e.last[i])
		}
		if e.w.rollups {
			e.checkSeries(a)
		}
		return
	}
	for _, h := range e.in.checks {
		host := e.in.hosts[h]
		m := e.mon[h%producers]
		hw, err := e.reader.Query(core.NSHardware, "PROC/"+host+"/"+m.lastTS[h])
		for i, name := range hwMetrics {
			if err != nil {
				compare(0, false, 0)
				continue
			}
			v, ok := hw.Float(name)
			compare(v, ok, m.lastHW[h][i])
		}
		tau, err := e.reader.Query(core.NSPerformance, "TAU/"+host)
		for r := 0; r < tauRanks; r++ {
			for f, fn := range tauFuncs {
				for k, field := range tauFields {
					if err != nil {
						compare(0, false, 0)
						continue
					}
					v, ok := tau.Float("r" + strconv.Itoa(r) + "/" + fn + "/" + field)
					compare(v, ok, m.tau[h][r][f*len(tauFields)+k])
				}
			}
		}
	}
	rp, err := e.reader.Query(core.NSWorkflow, "RP/summary")
	for i, f := range rpFields {
		if err != nil {
			compare(0, false, 0)
			continue
		}
		v, ok := rp.Float(f)
		compare(v, ok, e.mon[0].rp[i])
	}
}

// checkSeries verifies the rollup store: the key set is exactly the sensor
// set plus the probe marker, and every sensor series' newest raw point is
// the value last sent.
func (e *env) checkSeries(a *accounting) {
	keys, err := e.reader.SeriesKeys(core.NSHardware, "")
	want := e.in.expectedSeries()
	a.checks++
	if err != nil || len(keys) != len(want) {
		a.mismatches++
	} else {
		for i := range keys {
			if keys[i] != want[i] {
				a.mismatches++
				break
			}
		}
	}
	for i, path := range e.in.sensors {
		a.checks++
		se, err := e.reader.Series(core.NSHardware, path, core.LevelRaw, 0)
		if err != nil || len(se.Points) == 0 || se.Points[len(se.Points)-1].Value != e.last[i] {
			a.mismatches++
		}
	}
}
