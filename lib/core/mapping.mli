(** Timing-aware logic decomposition and technology mapping — the
    Section 6 direction "timing-aware logic decomposition and technology
    mapping for RT circuits".

    Atomic complex gates are not manufacturable beyond a few series
    transistors.  {!emit_mapped} decomposes every synthesized cover into a
    tree of bounded-fan-in AND/OR gates (plus a set-dominant element for
    gC implementations).  Decomposition introduces internal nodes with
    their own delays, so the result is generally {e not} hazard-free under
    unbounded delays; {!map_flow} closes the loop by verifying
    the mapped netlist against its specification and deriving, failure by
    failure, the internal relative-timing constraints (net-level "a
    before b" orderings) under which it conforms — constraints that the
    physical design must then honour. *)

val emit_mapped :
  ?style:Rtcad_synth.Emit.style ->
  ?max_fanin:int ->
  Rtcad_stg.Stg.t ->
  (int * Rtcad_synth.Implement.impl) list ->
  Rtcad_netlist.Netlist.t
(** Like {!Rtcad_synth.Emit.emit} but with every gate's fan-in bounded by
    [max_fanin] (default 3; must be [>= 2]). *)

type inference = {
  netlist : Rtcad_netlist.Netlist.t;
  constraints :
    (Rtcad_verify.Conformance.net_edge * Rtcad_verify.Conformance.net_edge) list;
      (** internal orderings sufficient for conformance *)
  conforms : bool;  (** whether the loop reached conformance *)
  rounds : int;
  residual : Rtcad_verify.Conformance.failure list;
      (** failures left when [conforms] is false *)
}

val map_flow :
  ?style:Rtcad_synth.Emit.style ->
  ?max_fanin:int ->
  Flow.t ->
  inference
(** Decompose a flow result's implementations ({!emit_mapped}) and infer
    the decomposition constraints against the flow's STG, with the
    flow's behavioural assumptions also in force.

    Backtracking repair search: check conformance; every hazard "gate g
    towards v disabled by edge e" proposes the two orderings "(g,v)
    before e" and "e before (g,v)"; every unexpected output proposes
    making each gate that was racing it fire first.  The search explores
    these alternatives depth-first under a budget derived from 32
    rounds and memoizes visited constraint sets.

    The inference converges for shallow decompositions (the Muller
    pipeline controller needs four constraints); for deep OR-tree races
    (the fully decomposed C-element, the FIFO cells at fan-in 2) the
    repair space grows beyond the budget and the inference reports
    failure with the best residual — mirroring the paper's assessment of
    timing-aware decomposition as an open CAD problem (Section 6). *)
