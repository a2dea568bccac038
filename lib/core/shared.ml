(* Separate objects: data owned by a processor.

   SCOOP's type system marks objects residing on another handler as
   [separate] and only allows calls on them inside a separate block that
   reserves their handler.  We enforce the same discipline dynamically:
   every access checks that the registration used actually reserves the
   owning processor, which is the runtime analogue of the static
   "protected by the same separate block" rule of §2.1. *)

type 'a t = { proc : Processor.t; mutable data : 'a }

let create proc data =
  (* A shared object's payload lives in *this* process; a remote
     processor's state must live in node-side globals instead (shipped
     closures execute against the node's globals — a [Shared.t] captured
     by one would be a silently diverging copy). *)
  if Processor.is_remote proc then
    invalid_arg
      "Scoop.Shared: remote processors cannot own in-process shared        objects; keep their state in module-level globals on the node";
  { proc; data }

let proc t = t.proc

let check reg t =
  if Registration.processor reg != t.proc then
    invalid_arg
      "Scoop.Shared: object not protected by this separate block \
       (registration reserves a different processor)"

let apply reg t f =
  check reg t;
  Registration.call reg (fun () -> f t.data)

let get reg t f =
  check reg t;
  Registration.query reg (fun () -> f t.data)

let set reg t v =
  check reg t;
  Registration.call reg (fun () -> t.data <- v)

let read_synced reg t =
  check reg t;
  (* Make sure the handler is parked w.r.t. this registration, then hand
     the raw data to the client: the access pattern of the hoisted kernels
     (one sync lifted out of the loop, §3.4.2–3.4.3). *)
  Registration.sync reg;
  t.data
