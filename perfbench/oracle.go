package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// refTolerance is the relative tolerance of every reference comparison.
// Block results are bit-deterministic; the daemon sums block BELs in map
// order, so totals over three or more blocks may differ in the last bits.
const refTolerance = 1e-9

// refEntry is the recorded answer to one body.
type refEntry struct {
	Key string  `json:"key"` // body fingerprint, see body.refKey
	BEL float64 `json:"bel,omitempty"`
	SCR float64 `json:"scr,omitempty"`
	// Campaign answers.
	BaseBEL    float64            `json:"base_bel,omitempty"`
	BaseVaRSCR float64            `json:"base_var_scr,omitempty"`
	Modules    map[string]float64 `json:"modules,omitempty"` // module -> delta BEL
	Campaign   *scrJSON           `json:"scr_block,omitempty"`
}

// refTable maps "<workload>/<slot>/<variant>" to the recorded answer.
type refTable struct {
	Seconds int                 `json:"seconds"`
	Entries map[string]refEntry `json:"entries"`
}

func refID(w string, slot, variant int) string { return fmt.Sprintf("%s/%d/%d", w, slot, variant) }

func loadRefs(path string) (*refTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	var t refTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("reference table %s: %w", path, err)
	}
	return &t, nil
}

func (t *refTable) save(path string) error {
	ids := make([]string, 0, len(t.Entries))
	for id := range t.Entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Encode entry by entry so the file diffs line per body.
	buf := []byte(fmt.Sprintf("{\n\"seconds\": %d,\n\"entries\": {\n", t.Seconds))
	for i, id := range ids {
		e, err := json.Marshal(t.Entries[id])
		if err != nil {
			return err
		}
		k, _ := json.Marshal(id)
		buf = append(buf, k...)
		buf = append(buf, ": "...)
		buf = append(buf, e...)
		if i < len(ids)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n}\n"...)
	return os.WriteFile(path, buf, 0o644)
}

// lookup returns the recorded answer for a request, or an error when the
// table has none for exactly this body.
func (t *refTable) lookup(w string, r request) (refEntry, error) {
	e, ok := t.Entries[refID(w, r.slot, r.variant)]
	if !ok {
		return e, fmt.Errorf("no reference for %s slot %d variant %d (table recorded for --seconds %d)",
			w, r.slot, r.variant, t.Seconds)
	}
	if e.Key != r.body.refKey() {
		return e, fmt.Errorf("reference for %s slot %d variant %d was recorded for another body", w, r.slot, r.variant)
	}
	return e, nil
}

func close1e9(got, want float64) bool {
	return math.Abs(got-want) <= refTolerance*math.Abs(want)
}

func checkClose(what string, got, want float64) error {
	if !close1e9(got, want) {
		return fmt.Errorf("%s = %.17g, reference %.17g", what, got, want)
	}
	return nil
}

// checkJob compares a job answer with its reference.
func checkJob(ref refEntry, bel, scr float64) error {
	if err := checkClose("bel", bel, ref.BEL); err != nil {
		return err
	}
	return checkClose("scr", scr, ref.SCR)
}

// checkCampaign demands bit equality of a campaign answer with ref: the
// golden outcome, or the replay of the same campaign.
func checkCampaign(ref refEntry, got campaignResultJSON) error {
	cmp := func(what string, g, w float64) error {
		if g != w {
			return fmt.Errorf("%s = %.17g, want %.17g", what, g, w)
		}
		return nil
	}
	if err := cmp("base_bel", got.BaseBEL, ref.BaseBEL); err != nil {
		return err
	}
	if err := cmp("base_var_scr", got.BaseVaRSCR, ref.BaseVaRSCR); err != nil {
		return err
	}
	if len(got.Modules) != len(ref.Modules) {
		return fmt.Errorf("%d modules, reference has %d", len(got.Modules), len(ref.Modules))
	}
	for _, m := range got.Modules {
		want, ok := ref.Modules[m.Module]
		if !ok {
			return fmt.Errorf("module %s not in the reference", m.Module)
		}
		if err := cmp("delta_bel["+m.Module+"]", m.DeltaBEL, want); err != nil {
			return err
		}
	}
	s, w := got.SCR, ref.Campaign
	if s.InterestDownBinding != w.InterestDownBinding {
		return fmt.Errorf("scr.interest_down_binding = %v, reference %v", s.InterestDownBinding, w.InterestDownBinding)
	}
	for _, f := range []struct {
		name string
		g, w float64
	}{
		{"scr.interest", s.Interest, w.Interest}, {"scr.market", s.Market, w.Market},
		{"scr.life", s.Life, w.Life}, {"scr.other", s.Other, w.Other}, {"scr.bscr", s.BSCR, w.BSCR},
	} {
		if err := cmp(f.name, f.g, f.w); err != nil {
			return err
		}
	}
	return nil
}

// goldenFile is the shape of testdata/golden_scr.json.
type goldenFile struct {
	Seed       uint64             `json:"seed"`
	BaseBEL    float64            `json:"base_bel"`
	BaseVaRSCR float64            `json:"base_var_scr"`
	Modules    map[string]float64 `json:"modules"`
	SCR        scrJSON            `json:"scr"`
}

// loadGolden reads the golden campaign outcome and checks it was recorded
// for the seed the golden probe sends.
func loadGolden(path string, seed uint64) (refEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return refEntry{}, fmt.Errorf("golden campaign: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return refEntry{}, fmt.Errorf("golden campaign %s: %w", path, err)
	}
	if g.Seed != seed {
		return refEntry{}, fmt.Errorf("golden campaign %s was recorded for seed %d, the probe sends %d", path, g.Seed, seed)
	}
	scr := g.SCR
	return refEntry{BaseBEL: g.BaseBEL, BaseVaRSCR: g.BaseVaRSCR, Modules: g.Modules, Campaign: &scr}, nil
}
