package discoverxfd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"discoverxfd"
)

func TestWriteJSON(t *testing.T) {
	doc, err := discoverxfd.ParseDocument(libraryXML)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discoverxfd.NewEngine(&discoverxfd.Options{ApproxError: 0.5}).Discover(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := discoverxfd.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		FDs []struct {
			Class           string   `json:"class"`
			LHS             []string `json:"lhs"`
			RHS             string   `json:"rhs"`
			RedundantValues int      `json:"redundantValues"`
		} `json:"fds"`
		Keys []struct {
			Class string   `json:"class"`
			LHS   []string `json:"lhs"`
		} `json:"keys"`
		Stats struct {
			Relations       int    `json:"relations"`
			Tuples          int    `json:"tuples"`
			IntraTime       string `json:"intraTime"`
			WallTime        string `json:"wallTime"`
			Truncated       bool   `json:"truncated"`
			TruncatedReason string `json:"truncatedReason"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.FDs) != len(res.FDs) || len(decoded.Keys) != len(res.Keys) {
		t.Fatalf("JSON cardinalities differ: %d/%d FDs, %d/%d keys",
			len(decoded.FDs), len(res.FDs), len(decoded.Keys), len(res.Keys))
	}
	if decoded.Stats.Relations != res.Stats.Relations || decoded.Stats.Tuples != res.Stats.Tuples {
		t.Fatalf("stats mismatch: %+v vs %+v", decoded.Stats, res.Stats)
	}
	if d, err := time.ParseDuration(decoded.Stats.WallTime); err != nil || d <= 0 {
		t.Errorf("wallTime = %q, want a positive duration (err=%v)", decoded.Stats.WallTime, err)
	}
	if _, err := time.ParseDuration(decoded.Stats.IntraTime); err != nil {
		t.Errorf("intraTime = %q does not parse: %v", decoded.Stats.IntraTime, err)
	}
	if decoded.Stats.Truncated || decoded.Stats.TruncatedReason != "" {
		t.Errorf("untruncated run carries truncation fields: %+v", decoded.Stats)
	}
	// The isbn->title FD carries its witness count.
	found := false
	for _, fd := range decoded.FDs {
		if fd.RHS == "./title" && len(fd.LHS) == 1 && fd.LHS[0] == "./isbn" {
			found = true
			if fd.RedundantValues != 1 {
				t.Errorf("isbn->title redundantValues = %d, want 1", fd.RedundantValues)
			}
		}
	}
	if !found {
		t.Fatalf("isbn->title missing from JSON:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "approxFDs") && len(res.ApproxFDs) > 0 {
		t.Fatalf("approximate FDs missing from JSON")
	}
}

// TestWriteJSONTruncatedReason pins the truncation fields' round
// trip: a tuple-capped run must carry truncated=true and its reason
// through the JSON encoding.
func TestWriteJSONTruncatedReason(t *testing.T) {
	doc, err := discoverxfd.ParseDocument(libraryXML)
	if err != nil {
		t.Fatal(err)
	}
	eng := discoverxfd.NewEngine(&discoverxfd.Options{Limits: discoverxfd.Limits{MaxTuples: 2}})
	res, err := eng.Discover(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || res.Stats.TruncatedReason == "" {
		t.Fatalf("tuple-capped run not truncated: %+v", res.Stats)
	}
	var buf bytes.Buffer
	if err := discoverxfd.WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Stats struct {
			Truncated       bool   `json:"truncated"`
			TruncatedReason string `json:"truncatedReason"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if !decoded.Stats.Truncated || decoded.Stats.TruncatedReason != res.Stats.TruncatedReason {
		t.Fatalf("truncation fields lost in JSON: %+v vs %+v", decoded.Stats, res.Stats)
	}
}

func TestOptionsApproxThroughFacade(t *testing.T) {
	// Two dirty rows out of many: isbn->publisher approximately.
	xml := `<lib>
	  <b><isbn>1</isbn><pub>X</pub></b><b><isbn>1</isbn><pub>X</pub></b>
	  <b><isbn>1</isbn><pub>X</pub></b><b><isbn>1</isbn><pub>X</pub></b>
	  <b><isbn>1</isbn><pub>X</pub></b><b><isbn>1</isbn><pub>X</pub></b>
	  <b><isbn>1</isbn><pub>X</pub></b><b><isbn>1</isbn><pub>X</pub></b>
	  <b><isbn>1</isbn><pub>typo</pub></b>
	  <b><isbn>2</isbn><pub>Y</pub></b>
	</lib>`
	doc, err := discoverxfd.ParseDocument(xml)
	if err != nil {
		t.Fatal(err)
	}
	res, err := discoverxfd.NewEngine(&discoverxfd.Options{ApproxError: 0.15}).Discover(context.Background(), doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range res.ApproxFDs {
		if string(fd.RHS) == "./pub" && len(fd.LHS) == 1 && string(fd.LHS[0]) == "./isbn" {
			found = true
			if fd.Error <= 0 || fd.Error > 0.15 {
				t.Errorf("g3 error out of range: %v", fd.Error)
			}
		}
	}
	if !found {
		t.Fatalf("isbn->pub not found approximately: %v", res.ApproxFDs)
	}
}
