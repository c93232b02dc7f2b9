package shard

import (
	"reflect"
	"testing"

	"repro/nocmap/server"
)

// TestAddStatsMergesEveryField: the router's /v1/stats total sums every
// numeric field of server.Stats over the shards and ORs every bool, so
// a counter added to the backend can never go missing from the total.
func TestAddStatsMergesEveryField(t *testing.T) {
	var a, b server.Stats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range av.NumField() {
		switch f := av.Field(i); {
		case f.CanInt():
			f.SetInt(int64(i + 1))
			bv.Field(i).SetInt(int64(100 * (i + 1)))
		case f.CanUint():
			f.SetUint(uint64(i + 1))
			bv.Field(i).SetUint(uint64(100 * (i + 1)))
		case f.Kind() == reflect.Bool:
			bv.Field(i).SetBool(true)
		}
	}
	sum := reflect.ValueOf(addStats(a, b))
	for i := range sum.NumField() {
		name, f := sum.Type().Field(i).Name, sum.Field(i)
		switch {
		case f.CanInt():
			if f.Int() != int64(101*(i+1)) {
				t.Errorf("total %s = %d, want %d", name, f.Int(), 101*(i+1))
			}
		case f.CanUint():
			if f.Uint() != uint64(101*(i+1)) {
				t.Errorf("total %s = %d, want %d", name, f.Uint(), 101*(i+1))
			}
		case f.Kind() == reflect.Bool:
			if !f.Bool() {
				t.Errorf("total %s = false, want true (one shard reports true)", name)
			}
		case f.Kind() != reflect.Slice:
			t.Errorf("total %s has kind %s, which addStats does not merge", name, f.Kind())
		}
	}
}
