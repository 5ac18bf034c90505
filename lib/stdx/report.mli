(** Typed report intermediate representation.

    Every table, metric set, and verdict the reproduction produces —
    the E1–E12 experiment tables, verify/attack/census/bounds/proba
    reports, and the bench timings — is built as a value of this IR
    and only then rendered.  Three renderers share the one
    representation:

    - {b text} ({!to_text_body}): ASCII boxes in a fixed layout
      ({!table_to_text}), so EXPERIMENTS.md diffs stay reviewable and
      the engine-baseline output is byte-identical;
    - {b JSON} ({!to_json} / {!of_json}): a stable, versioned schema
      ({!schema_version}) suitable for [--json PATH] artifacts, CI
      regression gates, and downstream tooling;
    - {b CSV} ({!to_csv}): flat table exports.

    The JSON renderer round-trips: [of_json (to_json r)] recovers [r]
    exactly, and rendering again is a fixpoint — the property the
    golden schema tests pin so the schema cannot drift silently. *)

val schema_version : int
(** Version stamp written into (and required from) every artifact. *)

type align = Left | Right

type cell =
  | Int of int
  | Float of { value : float; decimals : int }
      (** [decimals] is display precision for the text renderer; JSON
          carries the full value *)
  | Bool of bool
  | String of string
  | Bignat of Bignat.t

type column = {
  header : string;
  align : align;
  unit_ : string option;  (** e.g. ["ns"]; carried in JSON/CSV only *)
}

type row = Cells of cell list | Separator

type table = { title : string; columns : column list; rows : row list }

type item =
  | Table of table
  | Metrics of { title : string option; pairs : (string * cell) list }
  | Text of string
  | Section of { heading : string; items : item list }

type t = {
  id : string;  (** stable producer id: "E1" … "E12", "verify", "attack", … *)
  title : string;
  ok : bool option;
      (** the report's verdict envelope; [None] when the producer has
          no pass/fail notion (e.g. the alpha table) *)
  notes : string list;
  items : item list;
}

(* ------------------------- construction ------------------------- *)

val int : int -> cell
val float : ?decimals:int -> float -> cell
(** [decimals] defaults to 2. *)

val bool : bool -> cell
val str : string -> cell
val bignat : Bignat.t -> cell

val opt_int : int option -> cell
(** An int cell, or ["-"] for [None]. *)

val column : ?unit_:string -> ?align:align -> string -> column

val make : id:string -> title:string -> ?ok:bool -> ?notes:string list -> item list -> t

type builder
(** Mutable table accumulation, a row at a time. *)

val table : title:string -> (string * align) list -> builder
val table_cols : title:string -> column list -> builder
val row : builder -> cell list -> unit
(** @raise Invalid_argument on arity mismatch with the header. *)

val sep : builder -> unit
val finish : builder -> item

(* ------------------------- renderers ------------------------- *)

val cell_text : cell -> string
(** The text renderer's cell formatting: ["yes"]/["no"] booleans,
    [%.*f] floats, decimal bignats. *)

val table_to_text : table -> string
(** The title line, then the table boxed with ASCII rules: a rule
    above and below the header row and after the last row, one at
    each {!sep}; every column padded to its widest cell, aligned as
    declared.  The E1–E17 text output depends on this layout byte for
    byte. *)

val to_text_body : t -> string
(** The report's items rendered to text, joined with newlines — for
    experiment reports this is exactly the pre-IR [table] string. *)

val to_text : t -> string
(** Header line ([== id: title [ok]]), body, and notes — the full
    human-facing report. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result

val set_to_json : t list -> Json.t
(** Multi-report artifact: [{schema_version; kind = "report-set";
    reports}] — what [stp experiments --json] writes. *)

val set_of_json : Json.t -> (t list, string) result
(** Accepts both a single report object and a report-set. *)

val to_csv : t -> string
(** Flat export: [# ]-prefixed context lines, then one header+rows
    block per table and [key,value] lines per metric set. *)

val validate_artifact : string -> (int, string) result
(** Parse and schema-check a serialized artifact (single report or
    report-set).  Returns the number of reports on success — the CI
    [report-schema] gate. *)
