package exper

import (
	"fmt"
	"io"
	"time"
)

// ExperimentIDs lists every runnable experiment, in the order "all" runs
// them.
var ExperimentIDs = []string{
	"table2", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"variance", "ablation-combine", "ablation-hash",
	"variants", "limits", "coverage",
}

// Run executes one experiment (or "all") under the profile, renders its
// table(s) to w, and — if csvDir is non-empty — writes CSVs there.
func Run(id string, p Profile, seed int64, w io.Writer, csvDir string) error {
	ids := []string{id}
	if id == "all" {
		ids = ExperimentIDs
	}
	for _, one := range ids {
		start := time.Now()
		table, err := runOne(one, p, seed)
		if err != nil {
			return fmt.Errorf("exper: %s: %w", one, err)
		}
		table.Notes = append(table.Notes,
			fmt.Sprintf("profile=%s scale=%.2f elapsed=%.1fs", p.Name, p.Scale, time.Since(start).Seconds()))
		if err := table.Render(w); err != nil {
			return err
		}
		if csvDir != "" {
			if err := table.WriteCSV(csvDir); err != nil {
				return err
			}
		}
	}
	return nil
}

func runOne(id string, p Profile, seed int64) (*Table, error) {
	switch id {
	case "table2":
		return Table2(p)
	case "fig1":
		return Fig1(p)
	case "fig3":
		r, err := GlobalAccuracy(p, 100, p.CSmallP, seed)
		if err != nil {
			return nil, err
		}
		return r.Table("fig3"), nil
	case "fig4":
		r, err := GlobalAccuracy(p, 10, p.CLargeP, seed)
		if err != nil {
			return nil, err
		}
		return r.Table("fig4"), nil
	case "fig5":
		r, err := LocalAccuracy(p, 100, p.CLocalSmallP, seed)
		if err != nil {
			return nil, err
		}
		return r.Table("fig5"), nil
	case "fig6":
		r, err := LocalAccuracy(p, 10, p.CLocalLargeP, seed)
		if err != nil {
			return nil, err
		}
		return r.Table("fig6"), nil
	case "fig7":
		r, err := RuntimeFig7(p, seed)
		if err != nil {
			return nil, err
		}
		return r.Table("fig7"), nil
	case "fig8":
		r, err := Fig8(p, seed)
		if err != nil {
			return nil, err
		}
		return r.Table("fig8"), nil
	case "variance":
		r, err := VarianceValidation(p, seed)
		if err != nil {
			return nil, err
		}
		return r.Table("variance"), nil
	case "ablation-combine":
		return AblationCombine(p, seed)
	case "ablation-hash":
		return AblationHash(p, seed)
	case "variants":
		return Variants(p, seed)
	case "limits":
		return Limits(p, seed)
	case "coverage":
		return Coverage(p, seed)
	}
	return nil, fmt.Errorf("unknown experiment %q (have %v, or \"all\")", id, ExperimentIDs)
}
