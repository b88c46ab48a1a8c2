package main

import (
	"os"
	"strconv"
	"strings"
)

// Stolen time. The benchmark's hosts are small virtual machines whose
// hypervisor, now and then for seconds to minutes, runs other guests on
// this machine's vCPUs while they have work; waking an idle vCPU waits
// for the hypervisor too. The guest kernel counts that time as "steal"
// in /proc/stat. A report only computes, so stolen time stretches its
// wall time whatever the program does: a report during which a share σ
// of the CPU time the machine's processes wanted went to other guests
// would have taken (1 − σ) of its time on a machine of its own, and
// that is the wall time the benchmark reports (σ goes to standard
// error). Nothing else is scaled. Set-up and latency figures are
// medians and percentiles, which bursts of steal move by less than
// their mean share — scaling them by it overshoots — and a request's
// latency is partly waiting (the other client, the network, the
// gateway's hedge timer), which stolen CPU time does not stretch.

// hostTicks is a /proc/stat snapshot: CPU time spent running (user,
// nice, system, irq, softirq) and stolen, in clock ticks summed over
// all CPUs.
type hostTicks struct{ busy, steal int64 }

// readHostTicks reads the aggregate "cpu" line of /proc/stat. Where
// that is unavailable it returns zeros, and no time counts as stolen.
func readHostTicks() hostTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}
	}
	return parseHostTicks(string(data))
}

// parseHostTicks parses the first line of /proc/stat:
// "cpu user nice system idle iowait irq softirq steal ...".
func parseHostTicks(stat string) hostTicks {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}
	}
	var v [8]int64
	for i := range v {
		v[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	return hostTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}
}

// stolenShare returns σ, the share of the CPU time wanted between two
// snapshots that was stolen.
func stolenShare(from, to hostTicks) float64 {
	busy, steal := to.busy-from.busy, to.steal-from.steal
	if steal <= 0 || busy < 0 {
		return 0
	}
	return float64(steal) / float64(busy+steal)
}
