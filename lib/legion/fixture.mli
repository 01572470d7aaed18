(** The application units the experiments share.

    A counter is the minimal stateful Legion object: [Increment(d)]
    adds [d] and answers the new value, [Get()] answers it, and the
    value round-trips through SaveState/RestoreState. Callers register
    it under their own unit name; unit names travel in class-derive
    messages, so each caller's name is part of its byte counts. *)

val counter : string -> Legion_core.Impl.factory
(** [counter unit_name] answers every call at once. Register it with
    [Impl.register unit_name (counter unit_name)]. *)

val counter_class :
  ?name:string -> System.t -> Legion_rt.Runtime.ctx -> string -> Legion_naming.Loid.t
(** [counter_class sys ctx unit_name] registers {!counter} under
    [unit_name] and derives a class from it, typed by the IDL
    [interface Counter { Increment(d: int): int; Get(): int; }] and
    named [name] (default ["Counter"]). *)

val slow_counter : service:float -> string -> Legion_core.Impl.factory
(** A serial server: each call occupies the object for [service]
    virtual seconds after every earlier call has drained, and its reply
    is sent at completion, so queue depth shows up as caller latency. *)

val worker : string -> Legion_core.Impl.factory
(** [worker unit_name]: [Work(d)] holds an inflight slot for [d]
    virtual seconds and then answers how many calls the object has
    accepted, so concurrent demand contends for admission slots and
    queuing shows up as caller latency. *)
