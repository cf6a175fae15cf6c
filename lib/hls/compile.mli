(** Compilation of handshake processes to signal transition graphs.

    Every channel [C] becomes a four-phase handshake pair [C_req]/[C_ack];
    for an input channel the request is driven by the environment and the
    acknowledge by the circuit, for an output channel the converse.  Each
    action occurrence expands to the four transitions of its handshake;
    the control flow gates the first circuit-driven transition of each
    action and resumes after the handshake completes.  Sequence chains
    exits to entries; [par] forks by giving every branch entry its own
    place and joins by making the continuation wait for every branch exit;
    the (implicit) outermost loop closes the control cycle with the
    initial marking.

    The result is an ordinary STG: the full Figure-2 flow (encoding, RT
    assumption generation, synthesis, verification) applies to it
    unchanged — the paper's "direct compilation from the high-level
    specifications" direction. *)

exception Unsupported of string
(** Raised when a channel is engaged in two branches of the same [par]
    (the four-phase protocol order would be ambiguous). *)

val compile : Ast.program -> Rtcad_stg.Stg.t
(** The program body is treated as the body of an infinite loop (a
    controller never terminates). *)
