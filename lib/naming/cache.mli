(** Binding cache with LRU eviction and expiry.

    The paper's scalability story rests on caching bindings everywhere:
    inside each object's communication layer, inside Binding Agents, and
    inside class objects (§4.1.2, §5). This one structure serves all
    three. A bounded cache evicts the least-recently-used entry; expired
    bindings (per {!Binding.expires}) are never returned and are purged
    on access. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] of [None] (default) is unbounded. [Some 0] caches
    nothing. @raise Invalid_argument on negative capacity. *)

val find : t -> now:float -> Loid.t -> Binding.t option
(** Valid cached binding for the LOID, refreshing its recency in a
    bounded cache (an unbounded one never evicts, so its hits keep their
    place). Expired entries are removed and reported as misses. *)

val add : t -> now:float -> Binding.t -> unit
(** Insert or replace. Expired bindings are ignored. May evict. *)

val invalidate : t -> Loid.t -> unit
(** Drop the LOID's entry, if any (InvalidateBinding(LOID) form). *)

val invalidate_exact : t -> Binding.t -> unit
(** Drop the entry only if it equals the given binding exactly
    (InvalidateBinding(binding) form, §3.6). *)

val find_refresh : t -> now:float -> stale:Binding.t -> Binding.t option
(** Lookup backing the GetBinding(binding) refresh form (§3.6): the
    target is [Binding.loid stale]. An entry equal to [stale] (or
    expired) is dropped and reported as a miss, so a refresh never
    re-serves the failing binding; a {e different} cached binding is a
    hit. Exactly one lookup is counted either way, keeping the §5
    hit-rate statistics honest. *)

val mem : t -> now:float -> Loid.t -> bool
(** Like {!find} but without counting a lookup or refreshing recency.
    Expired entries are purged, exactly as [find] would. *)

val length : t -> int
val capacity : t -> int option

val clear : t -> unit
(** Drop every entry and reset all statistics to the freshly-created
    state. *)

(** {1 Statistics} *)

val lookups : t -> int
val hits : t -> int
val hit_rate : t -> float
(** [0.] when no lookups. *)

val evictions : t -> int
