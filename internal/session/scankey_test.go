package session

import (
	"reflect"
	"testing"

	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/workload"
)

// TestScanKeyPartitionsConfig sorts every ooo.Config field into the scan
// key or out of it. A scan input is read by the functional scan, so jobs
// that differ in it must not share one; a detail-only field is read only
// by the interval simulations. A new Config field fails here until it is
// sorted, and each field's place is checked by changing it alone.
func TestScanKeyPartitionsConfig(t *testing.T) {
	scanInput := map[string]bool{
		"Emu":       true,
		"Hierarchy": true,
		"Pred":      true,
		"MaxInsts":  true,

		"IssueWidth":     false,
		"WindowSize":     false,
		"IFQSize":        false,
		"PhysRegs":       false,
		"Contexts":       false,
		"FetchPolicy":    false,
		"IntALUs":        false,
		"IntMulDiv":      false,
		"CachePorts":     false,
		"MulLatency":     false,
		"DivLatency":     false,
		"WrongPathFetch": false,
		"Trace":          false,
	}
	job := Job{Workload: workload.Spec{Name: "w"}, Scale: 1, Kind: runner.Timing, Machine: ooo.DefaultConfig()}
	base := scanKeyOf(job)
	typ := reflect.TypeOf(ooo.Config{})
	if typ.NumField() != len(scanInput) {
		t.Errorf("ooo.Config has %d fields, the partition lists %d", typ.NumField(), len(scanInput))
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		in, listed := scanInput[name]
		if !listed {
			t.Errorf("ooo.Config.%s is neither a scan input nor detail-only: add it to scanKey if the scan reads it", name)
			continue
		}
		j := job
		perturb(t, name, reflect.ValueOf(&j.Machine).Elem().Field(i))
		if changed := scanKeyOf(j) != base; changed != in {
			t.Errorf("changing ooo.Config.%s changes the scan key: %v, want %v", name, changed, in)
		}
	}
}

// perturb changes v to another value of its type: a number by one, a
// flag by negation, a string by a suffix, a struct by its first field,
// the trace sink to a buffer.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Struct:
		perturb(t, name, v.Field(0))
	case reflect.Interface:
		v.Set(reflect.ValueOf(obs.PipeSink(obs.NewPipeBuffer(1))))
	default:
		t.Fatalf("ooo.Config.%s: cannot perturb a %s", name, v.Type())
	}
}
