package core

import (
	"fmt"
	"strings"

	"progmp/internal/analysis"
)

// StatusReport renders a proc-style status page for a scheduler — the
// analogue of the paper's "extensive proc-based interface with
// debugging and performance statistics" (§4.1).
func (s *Scheduler) StatusReport() string {
	var b strings.Builder
	st := s.Stats()
	fmt.Fprintf(&b, "scheduler %s\n", s.name)
	fmt.Fprintf(&b, "  backend          %s\n", s.backend)
	fmt.Fprintf(&b, "  executions       %d\n", st.Executions)
	fmt.Fprintf(&b, "  pushes           %d\n", st.Pushes)
	fmt.Fprintf(&b, "  pops             %d\n", st.Pops)
	fmt.Fprintf(&b, "  drops            %d\n", st.Drops)
	if s.backend == BackendVM {
		fmt.Fprintf(&b, "  spec hits/misses %d/%d\n", st.Executions-st.GenericExecs, st.GenericExecs)
		if st.Steps > 0 {
			fmt.Fprintf(&b, "  vm steps         %d\n", st.Steps)
		}
	}
	fmt.Fprintf(&b, "  memory           %d B program, %d B per instance\n", s.MemoryFootprint(), InstanceFootprint())
	fmt.Fprintf(&b, "  frame slots      %d\n", s.info.NumSlots)
	if s.report != nil {
		fmt.Fprintf(&b, "  step bound       %s (%d steps at reference size)\n", s.report.StepBound, s.report.StepBoundAt)
		if n := len(s.report.Diagnostics); n > 0 {
			fmt.Fprintf(&b, "  analysis         %d warning(s), %d info(s)\n", s.report.Warnings(), s.report.Count(analysis.SevInfo))
		}
	}

	var regs []string
	for i := 0; i < len(s.info.RegsRead); i++ {
		switch {
		case s.info.RegsRead[i] && s.info.RegsWritten[i]:
			regs = append(regs, fmt.Sprintf("R%d(rw)", i+1))
		case s.info.RegsRead[i]:
			regs = append(regs, fmt.Sprintf("R%d(r)", i+1))
		case s.info.RegsWritten[i]:
			regs = append(regs, fmt.Sprintf("R%d(w)", i+1))
		}
	}
	if len(regs) == 0 {
		regs = []string{"none"}
	}
	fmt.Fprintf(&b, "  registers        %s\n", strings.Join(regs, " "))

	if s.vmProg != nil {
		fmt.Fprintf(&b, "  bytecode         %d instructions, %d spill slots (generic)\n",
			len(s.vmProg.Insns), s.vmProg.SpillSlots)
		for n := range s.specialized {
			if p := s.specialized[n].Load(); p != nil {
				fmt.Fprintf(&b, "  specialized[%d]   %d instructions\n", n, len(p.Insns))
			}
		}
	}
	// The full registry snapshot, indented under the header block.
	for _, line := range strings.Split(strings.TrimRight(s.metrics.Render(), "\n"), "\n") {
		if line != "" {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// ReportAll renders the status of every scheduler in the registry.
func (r *Registry) ReportAll() string {
	var b strings.Builder
	for _, name := range r.Names() {
		s, err := r.Get(name)
		if err != nil {
			continue
		}
		b.WriteString(s.StatusReport())
	}
	return b.String()
}
