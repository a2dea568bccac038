(* Runtime trace -> semantics replay bridge (see qs_conform.mli).

   The merged chronological event stream from [Scoop.Trace.events] is
   split per (processor, registration): the registration id is the
   [client] attribution the runtime stamps on every SCOOP-level event,
   and a registration is the exact scope over which the replay
   automaton's log watermarks are meaningful (one client fiber logging
   into one private queue).  Each partition is an independent
   single-client stream, which is the soundness precondition of
   [Qs_semantics.Replay] — feeding it the merged stream instead (as the
   benchmark's conformance probe once did) interleaves unrelated log
   watermarks and reports phantom violations under concurrency.

   Events keep their sink sequence numbers through the partitioning, so
   a violation at partition index i is mapped back to the ring slot
   (and Chrome-export row) of the offending event. *)

module T = Scoop.Trace
module R = Qs_semantics.Replay

type stream = {
  st_proc : int;
  st_client : int;
  st_events : int;
}

type violation = {
  v_proc : int;
  v_client : int;
  v_seq : int;
  v_violation : R.violation;
}

type report = {
  events : int;
  skipped : int;
  streams : stream list;
  violations : violation list;
}

type error =
  | Unattributed of { proc : int; seq : int; kind : T.kind }
  | Truncated of { dropped : int }

let event_of_kind (k : T.kind) ~proc =
  match k with
  | T.Reserved -> Some (R.Reserved proc)
  | T.Call_logged -> Some (R.Logged proc)
  | T.Call_executed _ -> Some (R.Executed proc)
  | T.Sync_round_trip _ | T.Query_round_trip _ -> Some (R.Synced proc)
  | T.Query_pipelined _ -> Some (R.Pipelined proc)
  | T.Sync_elided -> Some (R.Elided proc)
  | T.Request_timeout -> Some (R.TimedOut proc)
  | T.Request_shed -> Some (R.Shed proc)
  | T.Registration_poisoned -> Some (R.Poisoned proc)
  (* A query shed rejects a rendezvous without consuming a logged-call
     slot — the replay automaton's Shed label models call sheds only.
     The rejected rendezvous still completes (the client observes
     [Overloaded]), so a blocking query records its round trip — and
     mapping that to Synced stays sound: by the time the rejection
     wakes the client the handler has consumed everything logged before
     the query. *)
  | T.Handler_failed | T.Promise_rejected | T.Query_shed -> None

type bucket = {
  mutable b_events : R.event list; (* reversed *)
  mutable b_seqs : int list; (* reversed, aligned with b_events *)
  mutable b_count : int;
}

let check_events evs =
  let tbl : (int * int, bucket) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let events = ref 0 in
  let skipped = ref 0 in
  let error = ref None in
  List.iter
    (fun (e : T.event) ->
      if !error = None then
        match event_of_kind e.T.kind ~proc:e.T.proc with
        | None -> incr skipped
        | Some re ->
          if e.T.client = 0 then
            error :=
              Some
                (Unattributed { proc = e.T.proc; seq = e.T.seq; kind = e.T.kind })
          else begin
            incr events;
            let key = (e.T.proc, e.T.client) in
            let b =
              match Hashtbl.find_opt tbl key with
              | Some b -> b
              | None ->
                let b = { b_events = []; b_seqs = []; b_count = 0 } in
                Hashtbl.add tbl key b;
                order := key :: !order;
                b
            in
            b.b_events <- re :: b.b_events;
            b.b_seqs <- e.T.seq :: b.b_seqs;
            b.b_count <- b.b_count + 1
          end)
    evs;
  match !error with
  | Some e -> Error e
  | None ->
    let keys = List.rev !order in
    let streams =
      List.map
        (fun ((proc, client) as key) ->
          let b = Hashtbl.find tbl key in
          { st_proc = proc; st_client = client; st_events = b.b_count })
        keys
    in
    let violations =
      List.concat_map
        (fun ((proc, client) as key) ->
          let b = Hashtbl.find tbl key in
          let stream = List.rev b.b_events in
          let seqs = Array.of_list (List.rev b.b_seqs) in
          List.map
            (fun (v : R.violation) ->
              {
                v_proc = proc;
                v_client = client;
                v_seq = seqs.(v.R.index);
                v_violation = v;
              })
            (R.check_all stream))
        keys
    in
    Ok { events = !events; skipped = !skipped; streams; violations }

let check_trace tr =
  match Qs_obs.Sink.dropped (T.sink tr) with
  | 0 -> check_events (T.events tr)
  | dropped -> Error (Truncated { dropped })

let ok = function
  | Ok r -> r.violations = []
  | Error _ -> false

let pp_violation ppf v =
  Format.fprintf ppf "processor %d, registration %d, ring seq %d: %a" v.v_proc
    v.v_client v.v_seq R.pp_violation v.v_violation

let pp_error ppf = function
  | Unattributed { proc; seq; kind } ->
    let name =
      match kind with
      | T.Reserved -> "reserve"
      | T.Call_logged -> "call_log"
      | T.Call_executed _ -> "call_exec"
      | T.Sync_round_trip _ -> "sync"
      | T.Sync_elided -> "sync_elided"
      | T.Query_round_trip _ -> "query"
      | T.Query_pipelined _ -> "query_async"
      | T.Handler_failed -> "handler_failure"
      | T.Registration_poisoned -> "poisoned"
      | T.Promise_rejected -> "promise_rejected"
      | T.Request_timeout -> "timeout"
      | T.Request_shed -> "shed"
      | T.Query_shed -> "shed_query"
    in
    Format.fprintf ppf
      "unattributed %s event on processor %d (ring seq %d): the stream \
       cannot be partitioned per registration"
      name proc seq
  | Truncated { dropped } ->
    Format.fprintf ppf
      "%d events lost to ring overflow: a truncated trace cannot be checked"
      dropped

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d events across %d registration streams (%d skipped)@," r.events
    (List.length r.streams) r.skipped;
  List.iter
    (fun s ->
      Format.fprintf ppf "  processor %d / registration %d: %d events@,"
        s.st_proc s.st_client s.st_events)
    r.streams;
  (match r.violations with
  | [] -> Format.fprintf ppf "no violations"
  | vs ->
    Format.fprintf ppf "%d violation(s):" (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "@,  %a" pp_violation v) vs);
  Format.fprintf ppf "@]"
