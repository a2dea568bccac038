(* Wire protocol of the distributed runtime (the paper's §7 future-work
   direction carried to its conclusion: private queues over sockets, now
   with real processors on the far side).

   One duplex connection carries two independent FIFO streams of
   length-prefixed marshalled messages (the [Qs_remote.Socket_queue]
   framing): client→node requests and node→client completions.  FIFO
   order per direction is the protocol's only ordering guarantee — and
   the only one the SCOOP semantics needs, because a registration's
   requests are ordered by its stream exactly like a private queue
   orders them in-process.

   Request payloads are closures shipped under [Marshal.Closures], which
   requires both peers to run the *same binary*: a closure is encoded as
   a code pointer plus its environment.  Handler state must therefore
   live in module-level globals (the node executes shipped closures
   against *its* globals); closures capturing client-side mutable state
   would silently operate on a copy.  [Hello] carries a digest of the
   running binary so a mismatched peer is rejected before any closure is
   decoded, never crashed mid-execution. *)

exception Remote_error of string
(* A handler-side exception crossing the wire: exception *identity* does
   not survive marshalling (an exception constructor is compared by
   physical identity of its slot), so the node ships
   [Printexc.to_string] of the original and the client re-raises this. *)

exception Connection_lost of string
(* The connection to the named node died (EOF, reset, or a torn frame)
   with operations outstanding: every pending rendezvous is rejected
   with this, and every open registration on the connection is poisoned
   with it (the dirty-processor rule applied to a dead transport). *)

let () =
  Printexc.register_printer (function
    | Remote_error msg -> Some (Printf.sprintf "Scoop.Remote_error(%S)" msg)
    | Connection_lost node ->
      Some (Printf.sprintf "Scoop.Connection_lost(%S)" node)
    | _ -> None)

(* Same-binary guard carried by [Hello]: [Sys.executable_name]'s digest
   is computed once per process.  Two processes running the same
   executable image agree; anything else is refused at handshake. *)
let binary_digest =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ -> "unknown")

type client_msg =
  | Hello of { version : int; digest : string }
  | Open of { reg : int; proc : int }
      (* enter a separate block on processor [proc] (per-connection id
         space); subsequent requests carrying [reg] ride its stream *)
  | Rcall of { reg : int; f : unit -> unit }
  | Rquery of { reg : int; qid : int; f : unit -> Obj.t }
  | Rsync of { reg : int; sid : int }
  | Rclose of { reg : int } (* exit the separate block *)
  | Bye (* orderly client teardown: no further requests follow *)
  | Shutdown (* ask the node process itself to stop serving *)

type node_msg =
  | Rresult of { qid : int; v : Obj.t }
  | Rfailed of { qid : int; msg : string }
      (* the query's own producer raised: re-raised as [Remote_error]
         (queries have a rendezvous, so no poisoning — same rule as
         in-process) *)
  | Rsynced of { sid : int }
  | Rpoisoned of { reg : int; msg : string }
      (* a previously logged call failed on the handler: the client-side
         registration is poisoned on receipt.  Sent in stream order
         ahead of the completion of whichever query/sync observed the
         poison, so the client sees the failure exactly where the
         in-process runtime would surface it *)

let protocol_version = 1

(* -- Address-level socket plumbing ---------------------------------------- *)

let sockaddr_of = function
  | Config.Unix_sock path -> Unix.ADDR_UNIX path
  | Config.Tcp (host, port) ->
    let inet =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ ->
          raise
            (Connection_lost
               (Printf.sprintf "tcp:%s:%d: host not found" host port)))
    in
    Unix.ADDR_INET (inet, port)

let domain_of = function
  | Config.Unix_sock _ -> Unix.PF_UNIX
  | Config.Tcp _ -> Unix.PF_INET

(* Bind + listen, non-blocking (the accept loop parks on readability).
   A stale unix-domain socket file from a dead node is unlinked first:
   bind would otherwise fail with EADDRINUSE forever. *)
let listen_on addr =
  (match addr with
  | Config.Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Config.Tcp _ -> ());
  let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
  (match addr with
  | Config.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Config.Unix_sock _ -> ());
  (try Unix.bind fd (sockaddr_of addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

(* Connect with a bounded retry loop: the two-process launch order is
   not controlled (the CI smoke starts node and client concurrently), so
   a refused connection or a not-yet-bound unix path is retried for up
   to [timeout] seconds before giving up. *)
let connect_to ?(timeout = 10.0) addr =
  (* Monotonic: a wall-clock step must not stretch or cut the retries. *)
  let give_up = Qs_obs.Clock.now_ns () + int_of_float (timeout *. 1e9) in
  let rec attempt () =
    let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd (sockaddr_of addr) with
    | () ->
      Unix.set_nonblock fd;
      fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN | Unix.EINTR), _, _)
      ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Qs_obs.Clock.now_ns () >= give_up then
        raise
          (Connection_lost
             (Config.addr_to_string addr ^ ": connection refused"))
      else begin
        (* Plain sleep, not a fiber suspension: connection setup runs
           before the demultiplexer fibers exist, possibly outside any
           scheduler. *)
        Unix.sleepf 0.05;
        attempt ()
      end
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  attempt ()

(* Accept one connection on a non-blocking listen fd; [None] on
   would-block (the caller parks on readability and retries), raises on
   a closed listen socket (the node's stop signal). *)
let accept_nonblock lfd =
  match Unix.accept ~cloexec:true lfd with
  | fd, _ ->
    Unix.set_nonblock fd;
    Some fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    None

let hello () = Hello { version = protocol_version; digest = Lazy.force binary_digest }

let check_hello = function
  | Hello { version; digest } ->
    if version <> protocol_version then
      Error (Printf.sprintf "protocol version mismatch: peer %d, ours %d"
               version protocol_version)
    else if digest <> Lazy.force binary_digest then
      Error "peer runs a different binary (closure shipping requires the same image)"
    else Ok ()
  | _ -> Error "peer did not start with Hello"
