(* Runtime configurations: the five optimization columns of the paper's §4
   evaluation plus the EVE retrofit of §4.5.

   The communication structure between clients and handlers — the axis
   the paper's whole evaluation turns on — is selected by [mailbox]:
   [`Qoq] is the queue-of-queues of Fig. 4, [`Direct] the original
   lock-plus-single-queue structure of Fig. 2.  Orthogonal runtime knobs
   ride along: [batch] bounds how many requests a handler drains per
   wakeup (1 reproduces the paper's one-dequeue-per-iteration loop).

   The [hoisted] flag does not change the runtime; it tells benchmark code
   which kernel *shape* to use — the naive shape (a sync before every
   access, what a straightforward code generator emits) or the hoisted
   shape (syncs lifted out of loops, the output of the static
   sync-coalescing pass in [Qs_syncopt]). *)

(* Where the runtime's processors live (the distributed-SCOOP axis):
   entirely in this process, hosted here for remote clients, or on
   remote node(s) reached over the socket transport.  [Connect] with
   several addresses is a static shard map: processor [id] lives on node
   [id mod length addrs]. *)
type addr = Unix_sock of string | Tcp of string * int

type endpoint =
  | In_process  (* every preset: the paper's single-process runtime *)
  | Listen of addr  (* host handlers here, serve remote clients *)
  | Connect of addr list  (* processors are proxies to these nodes *)

type t = {
  name : string;
  mailbox : [ `Qoq | `Direct ];
      (* queue-of-queues handler communication (Fig. 4) vs the original
         one-lock-per-handler structure (Fig. 2) *)
  batch : int;
      (* max requests a handler drains per wakeup (>= 1); one park/unpark
         and one consumer-side synchronization cover the whole batch *)
  client_query : bool;
      (* execute queries on the client after a sync round trip (Fig. 10b)
         instead of packaging them for the handler (Fig. 10a) *)
  dyn_sync : bool; (* dynamic sync coalescing, §3.4.1 *)
  hoisted : bool; (* benchmarks use statically sync-coalesced kernels, §3.4.2 *)
  eve : bool; (* EVE-style handler-lookup and shadow-stack handicaps, §4.5 *)
  default_deadline : float option;
      (* deadline (seconds) applied to blocking queries and syncs that do
         not pass an explicit [?timeout]; [None] = wait forever *)
  bound : int;
      (* admission bound: max requests in flight per handler before the
         [overflow] policy applies; 0 = unbounded (the paper's runtime) *)
  overflow : [ `Block | `Fail | `Shed_oldest ];
      (* what a client hitting the bound gets: yield until the handler
         drains, an immediate [Overloaded], or admission with the oldest
         pending request shed instead *)
  endpoint : endpoint; (* where processors live; see [endpoint] above *)
  trace : bool;
      (* record runtime events into a fresh private sink; the runtime's
         only tracing switch (an explicit [~obs] sink also traces) *)
}

let default_batch = 16

let none =
  {
    name = "none";
    mailbox = `Direct;
    batch = default_batch;
    client_query = false;
    dyn_sync = false;
    hoisted = false;
    eve = false;
    default_deadline = None;
    bound = 0;
    overflow = `Block;
    endpoint = In_process;
    trace = false;
  }

let dynamic = { none with name = "dynamic"; client_query = true; dyn_sync = true }
let static_ = { none with name = "static"; client_query = true; hoisted = true }
let qoq = { none with name = "qoq"; mailbox = `Qoq }

let all =
  {
    name = "all";
    mailbox = `Qoq;
    batch = default_batch;
    client_query = true;
    dyn_sync = true;
    hoisted = true;
    eve = false;
    default_deadline = None;
    bound = 0;
    overflow = `Block;
    endpoint = In_process;
    trace = false;
  }

(* §4.5: the production-EiffelStudio-like baseline and the EVE/Qs retrofit
   (QoQ + Dynamic only; no Static, as the paper could not implement it). *)
let eve_base = { none with name = "eve-base"; eve = true }

let eve_qs =
  {
    name = "eve-qs";
    mailbox = `Qoq;
    batch = default_batch;
    client_query = true;
    dyn_sync = true;
    hoisted = false;
    eve = true;
    default_deadline = None;
    bound = 0;
    overflow = `Block;
    endpoint = In_process;
    trace = false;
  }

let presets = [ none; dynamic; static_; qoq; all ]

let uses_qoq t = t.mailbox = `Qoq

(* -- Builders -------------------------------------------------------------

   Chainable [with_*] setters replacing the optional-argument sprawl on
   [Runtime.create]/[Runtime.run]:

     Config.qoq |> Config.with_deadline 0.5 |> Config.with_bound 64

   Each takes the value first and the config last so [|>] chains read
   left-to-right; each validates what the old runtime argument
   validated, at build time instead of run time. *)

let with_name name t = { t with name }
let with_mailbox mailbox t = { t with mailbox }

let with_batch batch t =
  if batch < 1 then invalid_arg "Config.with_batch: batch must be >= 1";
  { t with batch }

let with_client_query client_query t = { t with client_query }

let with_deadline d t =
  if d <= 0.0 then invalid_arg "Config.with_deadline: deadline must be > 0";
  { t with default_deadline = Some d }

let with_no_deadline t = { t with default_deadline = None }

let with_bound bound t =
  if bound < 0 then invalid_arg "Config.with_bound: bound must be >= 0";
  { t with bound }

let with_overflow overflow t = { t with overflow }
let with_trace trace t = { t with trace }
let with_listen addr t = { t with endpoint = Listen addr }

(* -- Addresses ------------------------------------------------------------ *)

let addr_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  match String.index_opt s ':' with
  | None -> None
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" -> if rest = "" then None else Some (Unix_sock rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> None
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" ->
          Some (Tcp (host, p))
        | _ -> None))
    | _ -> None)

let endpoint_to_string = function
  | In_process -> "in-process"
  | Listen a -> "listen:" ^ addr_to_string a
  | Connect addrs ->
    "connect:" ^ String.concat "," (List.map addr_to_string addrs)

(* -- Remote presets -------------------------------------------------------

   [remote addrs] is the client half (qoq base — remote registrations
   always use the packaged wire path, but local processors of the same
   runtime keep the qoq structure); [node addr] the hosting half.  The
   node side must use a queue-of-queues config: a Direct-mode
   reservation takes the handler lock, which would head-of-line block
   the single serve fiber multiplexing a connection.  An empty address
   list is refused here: processor ids are routed [id mod length addrs]. *)

let remote addrs =
  if addrs = [] then
    invalid_arg "Config.remote: at least one node address required";
  { qoq with name = "remote"; endpoint = Connect addrs }

let node addr = { qoq with name = "node"; endpoint = Listen addr }

(* [by_name] understands the presets plus remote forms:
   "connect:ADDR[,ADDR...]" and "listen:ADDR" with ADDR one of
   "unix:PATH" / "tcp:HOST:PORT". *)
let by_name name =
  let prefixed p =
    if String.length name > String.length p && String.starts_with ~prefix:p name
    then Some (String.sub name (String.length p)
                 (String.length name - String.length p))
    else None
  in
  match prefixed "connect:" with
  | Some rest ->
    let parts = String.split_on_char ',' rest in
    let addrs = List.filter_map addr_of_string parts in
    if List.length addrs = List.length parts && addrs <> [] then
      Some (remote addrs)
    else None
  | None -> (
    match prefixed "listen:" with
    | Some rest -> Option.map node (addr_of_string rest)
    | None ->
      List.find_opt
        (fun c -> c.name = name)
        (presets @ [ eve_base; eve_qs ]))

let pp ppf t =
  match t.endpoint with
  | In_process -> Format.pp_print_string ppf t.name
  | ep -> Format.fprintf ppf "%s@%s" t.name (endpoint_to_string ep)
