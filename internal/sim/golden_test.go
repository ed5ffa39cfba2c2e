package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"multiscalar/internal/core"
	"multiscalar/internal/obs"
	"multiscalar/internal/workloads"
)

// The goldens below are differential: they were recorded from the simulator
// before a rewrite and must hold after it, so any change to a simulated
// number, an event, a metric or a timeline row shows up as a digest
// mismatch. A deliberate model change re-records them and says so.

// resultGoldens holds, per workload, the SHA-256 over the canonical JSON of
// its 12 Results: {bb, cf, dd} × {4, 8} PUs × {out-of-order, in-order}.
var resultGoldens = map[string]string{
	"go":       "87e68cb4763885bf21c2561620498c9a13761720a00f389591321075bf3efa6b",
	"m88ksim":  "070dabf887dc815462a6fddc587ebc04f05003f969b96dc4c2c0fec69bfd6698",
	"cc":       "79549522f9de7c31aff57e67046b1598cc0450a0fcf4ee7fd81096fd2ed3d716",
	"compress": "4f4a50dba3798075efbb71c398805a4af26e992292801133197538ac0e89574c",
	"li":       "97848c1ca33ce6a9b9056efe48cc1bee92872baae38296f693538d28bd09dfb1",
	"ijpeg":    "57fdeb38e993b9517f504a60d3518f3a76d1b187768606f4750c796637d4a6c7",
	"perl":     "11318572980078467359ad4eec843251cac56a5638b8cefa34ce3d28042d3ac9",
	"vortex":   "88f336aff53bc638009cad0312c77ed7699826007951757bb286c1bc371b0668",
	"tomcatv":  "d964e5db1491062f0035e34d4ff5c92c563284876ee3d0efdc9fa6098f4163c3",
	"swim":     "e965e00685e2f93f623228b551f6b03ef83219826ed087b32e1fe542dba39c75",
	"su2cor":   "c1343f79b4594c3474218212ae304d219b120216493d877b40787f5e9020643c",
	"hydro2d":  "b16fa1e083ebcf9df9abd609faea7418af8fc67c85c2c557abb46afc7aaad8d2",
	"mgrid":    "2b8c27418d786faae8e5986a921a78f8bba9bac2db02e26a7a9020e0d873c825",
	"applu":    "d71b110902a8ca7d8166848eb33566eae2cd95505afb765de45b931431345ee5",
	"turb3d":   "2ba2051f41f8ec05b500b8d02a25834c30da11ceb8dc72d0407a67d1b9ad205d",
	"fpppp":    "e2a1d9bf2cd4cad4cc031fef32aa87c2b3463c925995e20a62cdafd0bc078aef",
	"apsi":     "9e91610b53c0c870b2eb3f491b562424371f5c2b18143cb74611637d2ad1e8c6",
	"wave5":    "a0168f363094658443d0ecbc409c31a623dba10d31ad8bf584dff13d194d17de",
}

// viewGoldens holds the SHA-256 of each observed view of a run: the Chrome
// trace JSON, the sim_* Prometheus text, and the full FormatTimeline chart
// with the timeline's Utilization.
var viewGoldens = map[string]string{
	"swim/chrome":       "e5fb751649fd6a1a7e117ed31c212433878405d7496428436db3d7509f5e9c7a",
	"swim/metrics":      "059612a95c124d776b0d501a3c34c612eb8321d948fc9dda554e9de4b42a43b6",
	"swim/timeline":     "b46b0a055e80264e44b0780622da89b9016136331a6f66d20fd17c65527a4aa0",
	"mgrid/chrome":      "4697b8b789661afd1c1d2011a8cabb32b392e79a1bb4560138f36c92ef3926db",
	"mgrid/metrics":     "15f83bc22de7cbdd564631f9bf808a36381bb4f15adeea05d85672b7ab9df242",
	"mgrid/timeline":    "f3c7c43a7cb52ba98c37ba27b92a8c963c2cf02e5eca2fb3e8b747b309b36468",
	"hydro2d/chrome":    "85c9995524ed705a5f50b2854e12a1d0f2d8d6c872cd17b72bcaabbe541fbc4b",
	"hydro2d/metrics":   "73adf32e0b8fc1028cdd442b2d8045c6d49a083268cc50fc6aef287b1be6e831",
	"hydro2d/timeline":  "fb9d521d348ba819a3883bb3decef2a92779d5cbdeaee1193ea16508f8580f43",
	"compress/chrome":   "222616b56976dcebdd2073fbc83fa0f663192084c2996b9c9b175f32e9aa8246",
	"compress/metrics":  "5649bbf7de053da79696f18bb15d91901c39443e87f2807074a5df2eba172fb4",
	"compress/timeline": "8dbc5d7dad5722b32c45d2131bcdc80b31b7d89f2677f8eda0be0c2f15521293",
}

// canonicalResult renders res as JSON with object keys sorted and numbers
// kept verbatim. It drops the "Timeline" key that Results carried before the
// task timeline became an event-stream view, so the digests recorded from
// that version still apply.
func canonicalResult(t *testing.T, res *Result) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	delete(m, "Timeline")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, goldens map[string]string, name, got string) {
	t.Helper()
	if want := goldens[name]; got != want {
		t.Errorf("%s: digest %s, want %s", name, got, want)
	}
}

// TestResultGoldens pins every Result field on every workload across the
// three heuristics, two machine sizes and both pipeline styles.
func TestResultGoldens(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			h := sha256.New()
			for _, heur := range []core.Heuristic{core.BasicBlock, core.ControlFlow, core.DataDependence} {
				part, err := core.Select(w.Build(), core.Options{Heuristic: heur})
				if err != nil {
					t.Fatal(err)
				}
				for _, pus := range []int{4, 8} {
					for _, inorder := range []bool{false, true} {
						cfg := DefaultConfig(pus)
						cfg.InOrder = inorder
						fmt.Fprintf(h, "%v/%d/%v\n", heur, pus, inorder)
						h.Write(canonicalResult(t, runSim(t, part, cfg)))
						h.Write([]byte("\n"))
					}
				}
			}
			checkGolden(t, resultGoldens, w.Name, hex.EncodeToString(h.Sum(nil)))
		})
	}
}

// TestObservedViewGoldens pins the bytes of every view derived from the
// event stream on runs that squash (sync table off) and on compress.
func TestObservedViewGoldens(t *testing.T) {
	for _, c := range []struct {
		workload string
		heur     core.Heuristic
		pus      int
		sync     bool
	}{
		{"swim", core.DataDependence, 4, false},
		{"mgrid", core.ControlFlow, 8, false},
		{"hydro2d", core.DataDependence, 8, false},
		{"compress", core.ControlFlow, 4, true},
	} {
		c := c
		t.Run(c.workload, func(t *testing.T) {
			t.Parallel()
			w, err := workloads.ByName(c.workload)
			if err != nil {
				t.Fatal(err)
			}
			part, err := core.Select(w.Build(), core.Options{Heuristic: c.heur})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(c.pus)
			cfg.SyncTable = c.sync
			col := &obs.Collector{}
			reg := obs.NewRegistry()
			rec := NewTimeline(part)
			res, err := RunObserved(part, cfg, obs.Tee(col, NewMetrics(reg), rec))
			if err != nil {
				t.Fatal(err)
			}
			if !c.sync && res.Restarts == 0 {
				t.Fatalf("%s does not squash; the squash views go unchecked", c.workload)
			}
			var chrome, prom bytes.Buffer
			if err := obs.WriteChromeTrace(&chrome, col.Events, c.pus); err != nil {
				t.Fatal(err)
			}
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, viewGoldens, c.workload+"/chrome", digest(chrome.Bytes()))
			checkGolden(t, viewGoldens, c.workload+"/metrics", digest(prom.Bytes()))
			tl := FormatTimeline(rec.Timeline(), 0) + fmt.Sprintf("utilization %v\n", rec.Timeline().Utilization(c.pus))
			checkGolden(t, viewGoldens, c.workload+"/timeline", digest([]byte(tl)))
		})
	}
}
