(** Self-registration of protocols and experiments.

    The CLI, the benchmark harness, and the examples used to each
    carry their own hard-coded protocol list and channel parser;
    adding a protocol meant touching all of them.  Instead, every
    protocol module and the experiment suite register themselves here
    at module-initialisation time, and every consumer resolves names
    through this table.  Adding a protocol or experiment now means
    registering it in exactly one place — its own module.

    The registering libraries are linked with [-linkall] so the
    side-effecting registrations are never dropped by the linker. *)

type config = {
  channel : Channel.Chan.kind;
  domain : int;  (** data alphabet size [m] *)
  max_len : int;  (** allowable-sequence length bound where needed *)
  header_space : int;  (** bounded-header size for stenning-mod *)
  drop_budget : int;  (** deletions the ladder/hybrid tolerate *)
  window : int;  (** pipelining window for go-back-n / selective-repeat *)
}
(** Everything a registered builder may draw on.  Builders ignore the
    fields they do not need. *)

val default : config
(** The CLI defaults: reorder+dup, [domain = 2], [max_len = 3],
    [header_space = 2], [drop_budget = 1], [window = 2]. *)

(* ------------------------- protocols ------------------------- *)

type protocol_entry = {
  p_name : string;
  p_doc : string;
  p_build : config -> (Protocol.t, string) result;
}

val register_protocol :
  name:string -> doc:string -> (config -> (Protocol.t, string) result) -> unit
(** @raise Invalid_argument on a duplicate name. *)

val protocol_names : unit -> string list
(** Registration order. *)

val find_protocol : string -> protocol_entry option

val build_protocol : name:string -> config -> (Protocol.t, string) result
(** [Error] for an unknown name, for a config field out of range
    ([domain], [max_len], [header_space] and [window] at least 1,
    [drop_budget] at least 0, whatever the protocol reads), and when
    the protocol's own construction fails. *)

(* ------------------------- channel kinds ------------------------- *)

val channel_forms : unit -> string list
(** The canonical spellings {!Channel.Chan.of_string} accepts,
    including the parameterised ["lag:K"] form — for CLI help and the
    enum cross-check test. *)

(* ------------------------- experiments ------------------------- *)

type experiment_entry = {
  e_id : string;  (** "E1" … "E12" *)
  e_doc : string;
  e_quick : unit -> Stdx.Report.t;  (** test-suite-scale parameters *)
  e_full : unit -> Stdx.Report.t;  (** paper-scale parameters *)
}

val register_experiment :
  id:string ->
  doc:string ->
  quick:(unit -> Stdx.Report.t) ->
  full:(unit -> Stdx.Report.t) ->
  unit
(** @raise Invalid_argument on a duplicate id. *)

val experiment_ids : unit -> string list
(** Registration order — E1 … E12. *)

val experiments : unit -> experiment_entry list

val find_experiment : string -> experiment_entry option
(** Lookup is case-insensitive on the id ("e3" finds "E3"). *)
