(** Runtime optimization configurations (paper §4).

    Each preset corresponds to a column of Tables 1–2 / Figs. 16–17:

    - {!none}: the original lock-based SCOOP runtime, packaged queries.
    - {!dynamic}: + client-side query execution with dynamic sync
      coalescing (§3.4.1).
    - {!static_}: + client-side query execution; benchmarks use kernels
      with syncs hoisted by the static pass (§3.4.2).
    - {!qoq}: the queue-of-queues communication structure alone (§2.3).
    - {!all}: every optimization combined (the SCOOP/Qs runtime).

    {!eve_base} and {!eve_qs} model the EVE retrofit experiment (§4.5).

    Orthogonal to the presets, [mailbox], [batch] and [spsc] select the
    request path: which communication structure a processor uses, how
    many requests its handler loop drains per wakeup, and which SPSC
    queue backs the private queues. *)

type addr = Unix_sock of string | Tcp of string * int
(** A node address: a unix-domain socket path or a TCP host/port. *)

type endpoint =
  | In_process
      (** every preset: processors live in this process (the paper's
          runtime) *)
  | Listen of addr
      (** host handlers here and serve remote clients (the [qs node]
          side; see [Scoop.Remote.listen]) *)
  | Connect of addr list
      (** processors are client-side proxies to these nodes; with
          several addresses, processor [id] is routed to node
          [id mod length addrs] (static shard map) *)

type t = {
  name : string;
  mailbox : [ `Qoq | `Direct ];
      (** queue-of-queues (Fig. 4) vs lock + single request queue (Fig. 2) *)
  batch : int;
      (** max requests a handler drains per wakeup (>= 1); 1 reproduces
          the paper's one-dequeue-per-iteration handler loop *)
  spsc : [ `Linked | `Ring ];
      (** private-queue backing store (§3.1 ablation) *)
  client_query : bool;
  dyn_sync : bool;
  hoisted : bool;
  eve : bool;
  default_deadline : float option;
      (** deadline (seconds) applied to blocking queries and syncs that do
          not pass an explicit [?timeout]; [None] (every preset) = wait
          forever *)
  bound : int;
      (** admission bound: max requests in flight per handler before
          [overflow] applies; [0] (every preset) = unbounded *)
  overflow : [ `Block | `Fail | `Shed_oldest ];
      (** policy at the bound: yield until the handler drains ([`Block],
          the default), raise [Scoop.Overloaded] at admission ([`Fail]), or
          admit and shed the oldest pending request ([`Shed_oldest]) *)
  pools : string list;
      (** extra named scheduler pools created by [Runtime.run] beyond the
          always-present ["default"] ([[]] in every preset) *)
  pool : string option;
      (** pool new processors' handler fibers are pinned to by default;
          [None] (every preset) = the spawner's pool *)
  endpoint : endpoint;
      (** where processors live ({!In_process} in every preset) *)
  trace : bool;
      (** record runtime events even when no explicit sink is passed
          (equivalent to the old [Runtime.create ~trace:true]) *)
}

val default_batch : int
(** Default [batch] of every preset (16). *)

val none : t
val dynamic : t
val static_ : t
val qoq : t
val all : t
val eve_base : t
val eve_qs : t

val presets : t list
(** The five columns of the optimization evaluation, in paper order. *)

val remote : addr list -> t
(** Client half of the distributed runtime: {!qoq} with
    [endpoint = Connect addrs].  Remote registrations always use the
    packaged wire path; local processors of the same runtime keep the
    queue-of-queues structure. *)

val node : addr -> t
(** Hosting half: {!qoq} with [endpoint = Listen addr].  Node configs
    must use the queue-of-queues mailbox — a Direct-mode reservation
    holds the handler lock, which would head-of-line block the single
    serve fiber multiplexing a connection. *)

val by_name : string -> t option
(** Preset lookup by [name]; additionally understands the remote forms
    ["connect:ADDR[,ADDR...]"] and ["listen:ADDR"] with [ADDR] one of
    ["unix:PATH"] / ["tcp:HOST:PORT"] (see {!addr_of_string}). *)

(** {2 Builders}

    Chainable setters replacing the optional-argument sprawl that used
    to live on [Runtime.create]/[Runtime.run]:

    {[ Config.qoq |> Config.with_deadline 0.5 |> Config.with_bound 64 ]}

    Value first, config last, so [|>] chains read left-to-right; each
    validates at build time what the old runtime argument validated at
    run time ([Invalid_argument] on a bad value). *)

val with_name : string -> t -> t
val with_mailbox : [ `Qoq | `Direct ] -> t -> t

val with_batch : int -> t -> t
(** @raise Invalid_argument if the batch is < 1. *)

val with_spsc : [ `Linked | `Ring ] -> t -> t
val with_client_query : bool -> t -> t
val with_dyn_sync : bool -> t -> t
val with_hoisted : bool -> t -> t
val with_eve : bool -> t -> t

val with_deadline : float -> t -> t
(** Default deadline (seconds) for blocking queries and syncs without an
    explicit [?timeout].  @raise Invalid_argument if not > 0. *)

val with_no_deadline : t -> t

val with_bound : int -> t -> t
(** Admission bound per handler; [0] = unbounded.
    @raise Invalid_argument if negative. *)

val with_overflow : [ `Block | `Fail | `Shed_oldest ] -> t -> t
val with_pools : string list -> t -> t
val with_pool : string -> t -> t
val with_default_pool : t -> t
val with_trace : bool -> t -> t
val with_endpoint : endpoint -> t -> t
val with_listen : addr -> t -> t

val with_connect : addr list -> t -> t
(** @raise Invalid_argument on an empty address list. *)

(** {2 Addresses} *)

val addr_to_string : addr -> string
(** ["unix:PATH"] / ["tcp:HOST:PORT"]. *)

val addr_of_string : string -> addr option
(** Inverse of {!addr_to_string}. *)

val endpoint_to_string : endpoint -> string
(** ["in-process"], ["listen:ADDR"] or ["connect:ADDR[,ADDR...]"]. *)

val uses_qoq : t -> bool
(** [t.mailbox = `Qoq]. *)

val mailbox_of_string : string -> [ `Qoq | `Direct ] option
(** ["qoq"] / ["direct"]. *)

val spsc_of_string : string -> [ `Linked | `Ring ] option
(** ["linked"] / ["ring"]. *)

val overflow_of_string : string -> [ `Block | `Fail | `Shed_oldest ] option
(** ["block"] / ["fail"] / ["shed"]. *)

val pp : Format.formatter -> t -> unit
(** The preset name, suffixed with ["@listen:..."]/["@connect:..."]
    when the endpoint is not {!In_process}. *)
