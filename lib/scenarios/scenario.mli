(** The traced walkthrough scenarios: one table, one runner.

    Each scenario is a small SCOOP program that prints a few walkthrough
    lines and fails loudly if its workload misbehaves.  {!run} executes
    one under tracing and replays the recorded event rings through the
    conformance automaton of the operational semantics ({!Qs_conform}).
    [qs check], the bench conformance probe and [test_conform] all run
    this table. *)

type t = {
  name : string;
  doc : string;  (** one line: what the walkthrough shows *)
  config : Scoop.Config.t;
  body : Scoop.Runtime.t -> unit;
}

val all : t list
(** [basic], [bank], [prodcons], [timeout], [shed], [faults], [flood]. *)

val find : string -> t option

type outcome = {
  stats : Scoop.Stats.t;
  sched : Qs_sched.Sched.counters;  (** final, exact scheduler counters *)
  sink : Qs_obs.Sink.t;
  verdict : (Qs_conform.report, Qs_conform.error) result;
      (** {!Qs_conform.check_trace} of [sink] *)
}

val run : ?domains:int -> ?mailbox:[ `Qoq | `Direct ] -> t -> outcome
(** Run the scenario traced ([domains] defaults to 2; [mailbox]
    overrides the scenario's own) and check the recorded trace.  The
    sink holds 65,536 events per domain, enough that no scenario
    overwrites one on either mailbox at 1 or 2 domains. *)

val phantom : outcome -> (Qs_conform.report, Qs_conform.error) result option
(** Negative control: append an execution that the client never logged
    to the run's first registration stream and check the trace again.
    A sound gate reports a violation.  [None] when the trace has no
    stream to break. *)
