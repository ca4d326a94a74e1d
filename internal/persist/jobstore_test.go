package persist

import (
	"encoding/json"
	"reflect"
	"testing"
)

// reportPayload mirrors the fields of comfedsv.Report the service persists
// (the root package cannot be imported here without inverting the
// dependency direction, and the store is schema-agnostic by design).
type reportPayload struct {
	FedSV     []float64 `json:"fedsv"`
	ComFedSV  []float64 `json:"comfedsv"`
	FinalLoss float64   `json:"final_test_loss"`
	Calls     int       `json:"utility_calls"`
}

func TestJobStoreRunRoundTrip(t *testing.T) {
	store, err := NewJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	run := makeRun(t)
	if err := store.SaveRun("job-1", run); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.LoadRun("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(run.Final, loaded.Final) {
		t.Fatal("final model changed across job-store round trip")
	}
	if len(loaded.Rounds) != len(run.Rounds) {
		t.Fatalf("loaded %d rounds, want %d", len(loaded.Rounds), len(run.Rounds))
	}
	for i := range run.Rounds {
		if !reflect.DeepEqual(run.Rounds[i].Locals, loaded.Rounds[i].Locals) {
			t.Fatalf("round %d locals changed across round trip", i)
		}
	}
}

func TestJobStoreReportRoundTripBitIdentical(t *testing.T) {
	store, err := NewJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := reportPayload{
		FedSV:     []float64{0.1, -0.25, 1.0 / 3.0, 1e-17},
		ComFedSV:  []float64{0.30000000000000004, 2.718281828459045},
		FinalLoss: 0.6931471805599453,
		Calls:     42,
	}
	if err := store.SaveJobReport("job-2", rep); err != nil {
		t.Fatal(err)
	}
	if !store.HasJobReport("job-2") {
		t.Fatal("HasJobReport = false after save")
	}
	var got reportPayload
	if err := store.LoadJobReport("job-2", &got); err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(rep)
	gotJSON, _ := json.Marshal(got)
	if string(want) != string(gotJSON) {
		t.Fatalf("report not byte-identical after round trip:\n save: %s\n load: %s", want, gotJSON)
	}
}

func TestJobStoreListAndDelete(t *testing.T) {
	store, err := NewJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "a", "c"} {
		if err := store.SaveJobReport(id, reportPayload{}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := store.ListJobReports()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"a", "b", "c"}) {
		t.Fatalf("ListJobReports = %v, want sorted [a b c]", ids)
	}
	if err := store.DeleteJob("b"); err != nil {
		t.Fatal(err)
	}
	if store.HasJobReport("b") {
		t.Fatal("report survives DeleteJob")
	}
	if err := store.DeleteJob("b"); err != nil {
		t.Fatal("deleting a missing job must be a no-op, got", err)
	}
}

func TestJobStoreRejectsBadIDs(t *testing.T) {
	store, err := NewJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "..", "../evil", "a/b", "a b", ".hidden", "job\x00"} {
		if ValidJobID(id) {
			t.Errorf("ValidJobID(%q) = true, want false", id)
		}
		if err := store.SaveJobReport(id, reportPayload{}); err == nil {
			t.Errorf("SaveJobReport accepted bad id %q", id)
		}
		if err := store.LoadJobReport(id, &reportPayload{}); err == nil {
			t.Errorf("LoadJobReport accepted bad id %q", id)
		}
	}
	for _, id := range []string{"job-1", "A.b_c-9"} {
		if !ValidJobID(id) {
			t.Errorf("ValidJobID(%q) = false, want true", id)
		}
	}
}
