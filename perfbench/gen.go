package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"github.com/hpcobs/gosoma/internal/conduit"
	"github.com/hpcobs/gosoma/internal/core"
)

// workload is one traffic mix. Why each exists, and which layers it loads
// or bypasses, is recorded in predictions.json beside this file.
type workload struct {
	name string
	// batched producers coalesce through Client.EnableBatch and publish
	// single-leaf sensor trees; otherwise producers publish whole monitor
	// trees with synchronous Client.Publish.
	batched bool
	// rollups leaves the service's series rollups on (the shipped default).
	rollups bool
	// alertRules installs a few threshold rules over the sensor series.
	alertRules bool
	// subscribers is the number of live remote subscribers on the hardware
	// namespace.
	subscribers int
	// rate is the offered publishes/s of the open-loop phase, fixed per
	// workload; predictions.json gives how each was chosen on a 2-core host.
	rate float64
	// tick is the number of sensors one open-loop tick publishes before it
	// flushes (batch-*).
	tick int
}

var workloads = []workload{
	{name: "batch-stream", batched: true, rollups: true, alertRules: true, subscribers: 2, rate: 10000, tick: 16},
	{name: "batch-raw", batched: true, rate: 200000, tick: 256},
	{name: "workflow-monitor", rollups: true, rate: 1500},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Traffic shape.
const (
	producers      = 2   // producer goroutines, one client connection each
	sensorNodes    = 256 // batch-*: nodes × sensorsPerNode single-leaf sensors
	sensorsPerNode = 16
	monitorNodes   = 64 // workflow-monitor: simulated nodes
	tauRanks       = 2  // workflow-monitor: TAU-profiled ranks per node
	rpEvery        = 16 // workflow-monitor: one RP summary per this many rounds
	checkSample    = 64 // final Query values compared against the last write
	probePath      = "PROBE/m"
)

var hwMetrics = []string{
	"CPU_Util", "CPU_User", "CPU_System", "CPU_IOWait", "CPU_Idle", "Load_1m",
	"Load_5m", "Load_15m", "Mem_Total", "Mem_Used", "Mem_Free", "Mem_Cached",
	"Swap_Used", "Net_RX_Bytes", "Net_TX_Bytes", "Net_RX_Pkts", "Net_TX_Pkts",
	"Disk_Read_Bytes", "Disk_Write_Bytes", "Disk_IO_Time", "GPU_Util",
	"GPU_Mem_Used", "GPU_Power", "Ctx_Switches",
}

var tauFuncs = []string{
	"main", "MPI_Init", "MPI_Allreduce", "MPI_Send", "MPI_Recv", "solve",
	"assemble", "write_output",
}

var tauFields = []string{"calls", "excl_us"}

var rpFields = []string{
	"tasks_new", "tasks_scheduled", "tasks_executing", "tasks_done",
	"tasks_failed", "cores_busy", "gpus_busy", "pilots_active",
}

// sensorAlerts are batch-stream's alert rules. Their thresholds lie far
// outside the sensor values, so every publish is evaluated and none fires.
var sensorAlerts = []core.AlertRule{
	{Name: "sensor-hot", NS: core.NSHardware, Pattern: "PROC/*/s00", Op: ">", Threshold: 1e18, WindowSec: 1},
	{Name: "sensor-stuck", NS: core.NSHardware, Pattern: "PROC/*/s07", Op: "<", Threshold: -1, WindowSec: 10},
	{Name: "any-sensor", NS: core.NSHardware, Pattern: "PROC/**", Op: ">=", Threshold: 1e18, WindowSec: 1},
}

// readOp is one analysis-client read.
type readOp struct {
	kind string // "query", "delta" or "series"
	ns   core.Namespace
	path string
}

// inputs is everything generated from the seed. The service only ever sees
// trees built from these.
type inputs struct {
	hosts   []string
	sensors []string // batch-*: leaf path of sensor i = node*16 + s
	// order is the batch sensor publish order: tick group g publishes
	// order[g*tick : (g+1)*tick].
	order  []int
	reads  []readOp
	checks []int // batch: sensor indices; monitor: host indices
}

func genInputs(w workload, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	nodes := monitorNodes
	if w.batched {
		nodes = sensorNodes
	}
	in := &inputs{}
	for _, id := range rng.Perm(90000)[:nodes] {
		in.hosts = append(in.hosts, fmt.Sprintf("cn%05d", 10000+id))
	}
	if w.batched {
		for h := range in.hosts {
			for s := 0; s < sensorsPerNode; s++ {
				in.sensors = append(in.sensors, "PROC/"+in.hosts[h]+"/s"+twoDigit(s))
			}
		}
		in.order = rng.Perm(len(in.sensors))
		in.checks = rng.Perm(len(in.sensors))[:checkSample]
	} else {
		in.checks = rng.Perm(nodes)[:nodes/4]
	}
	for i := 0; i < 512; i++ {
		h := in.hosts[rng.Intn(len(in.hosts))]
		switch {
		case w.batched && w.rollups && i%2 == 1:
			in.reads = append(in.reads, readOp{"series", core.NSHardware, "PROC/" + h + "/s" + twoDigit(rng.Intn(sensorsPerNode))})
		case w.batched:
			in.reads = append(in.reads, readOp{"query", core.NSHardware, "PROC/" + h})
		case i%3 == 0:
			in.reads = append(in.reads, readOp{"delta", core.NSHardware, "PROC/" + h})
		case i%3 == 1:
			in.reads = append(in.reads, readOp{"query", core.NSPerformance, "TAU/" + h})
		default:
			in.reads = append(in.reads, readOp{"series", core.NSHardware, "PROC/" + h + "/" + hwMetrics[rng.Intn(len(hwMetrics))]})
		}
	}
	return in
}

func twoDigit(i int) string {
	if i < 10 {
		return "0" + strconv.Itoa(i)
	}
	return strconv.Itoa(i)
}

// sensorTree is one single-leaf sensor publish.
func sensorTree(path string, v float64) *conduit.Node {
	n := conduit.NewNode()
	n.SetFloat(path, v)
	return n
}

// monitorState is one producer's workflow-monitor generator: the values it
// last wrote, kept for the final correctness check. Hosts h with
// h%producers == id belong to it.
type monitorState struct {
	rng    *rand.Rand
	lastTS []string      // per host: timestamp segment of the newest hardware tree
	lastHW [][]float64   // per host: values of the newest hardware tree
	tau    [][][]float64 // per host, rank: cumulative counters, len(tauFuncs)*len(tauFields)
	rp     []float64     // newest RP summary (producer 0 only)
}

func newMonitorState(seed int64, id int) *monitorState {
	m := &monitorState{
		rng:    rand.New(rand.NewSource(seed*7919 + int64(id))),
		lastTS: make([]string, monitorNodes),
		lastHW: make([][]float64, monitorNodes),
		tau:    make([][][]float64, monitorNodes),
		rp:     make([]float64, len(rpFields)),
	}
	for h := range m.tau {
		m.tau[h] = make([][]float64, tauRanks)
		for r := range m.tau[h] {
			m.tau[h][r] = make([]float64, len(tauFuncs)*len(tauFields))
		}
	}
	return m
}

// hwTree is one node's hardware monitor sample, laid out as
// PROC/<host>/<ts>/<metric>.
func (m *monitorState) hwTree(h int, host, ts string) *conduit.Node {
	n := conduit.NewNode()
	vals := make([]float64, len(hwMetrics))
	for i, name := range hwMetrics {
		vals[i] = float64(m.rng.Intn(1000000)) / 100
		n.SetFloat("PROC/"+host+"/"+ts+"/"+name, vals[i])
	}
	m.lastTS[h], m.lastHW[h] = ts, vals
	return n
}

// tauTree is one rank's cumulative TAU profile, laid out as
// TAU/<host>/r<rank>/<function>/<field>.
func (m *monitorState) tauTree(h, r int, host string) *conduit.Node {
	n := conduit.NewNode()
	c := m.tau[h][r]
	prefix := "TAU/" + host + "/r" + strconv.Itoa(r) + "/"
	for f, fn := range tauFuncs {
		for k, field := range tauFields {
			i := f*len(tauFields) + k
			c[i] += float64(1 + m.rng.Intn(500))
			n.SetFloat(prefix+fn+"/"+field, c[i])
		}
	}
	return n
}

// rpTree is the RADICAL-Pilot workflow summary.
func (m *monitorState) rpTree() *conduit.Node {
	n := conduit.NewNode()
	for i, f := range rpFields {
		m.rp[i] = float64(m.rng.Intn(4096))
		n.SetFloat("RP/summary/"+f, m.rp[i])
	}
	return n
}

// expectedSeries is the rollup key set batch-stream must end with: every
// sensor plus the probe marker.
func (in *inputs) expectedSeries() []string {
	keys := append([]string{probePath}, in.sensors...)
	sort.Strings(keys)
	return keys
}
