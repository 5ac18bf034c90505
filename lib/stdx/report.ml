let schema_version = 1

type align = Left | Right

type cell =
  | Int of int
  | Float of { value : float; decimals : int }
  | Bool of bool
  | String of string
  | Bignat of Bignat.t

type column = { header : string; align : align; unit_ : string option }

type row = Cells of cell list | Separator

type table = { title : string; columns : column list; rows : row list }

type item =
  | Table of table
  | Metrics of { title : string option; pairs : (string * cell) list }
  | Text of string
  | Section of { heading : string; items : item list }

type t = {
  id : string;
  title : string;
  ok : bool option;
  notes : string list;
  items : item list;
}

(* ------------------------- construction ------------------------- *)

let int n = Int n
let float ?(decimals = 2) value = Float { value; decimals }
let bool b = Bool b
let str s = String s
let bignat b = Bignat b
let opt_int = function Some n -> Int n | None -> String "-"

let column ?unit_ ?(align = Left) header = { header; align; unit_ }

let make ~id ~title ?ok ?(notes = []) items = { id; title; ok; notes; items }

type builder = {
  b_title : string;
  b_columns : column list;
  mutable b_rows : row list; (* reversed *)
}

let table_cols ~title columns = { b_title = title; b_columns = columns; b_rows = [] }

let table ~title cols =
  table_cols ~title (List.map (fun (header, align) -> column ~align header) cols)

let row b cells =
  if List.length cells <> List.length b.b_columns then
    invalid_arg "Report.row: arity mismatch";
  b.b_rows <- Cells cells :: b.b_rows

let sep b = b.b_rows <- Separator :: b.b_rows

let finish b = Table { title = b.b_title; columns = b.b_columns; rows = List.rev b.b_rows }

(* ------------------------- text renderer ------------------------- *)

let cell_text = function
  | Int n -> string_of_int n
  | Float { value; decimals } -> Printf.sprintf "%.*f" decimals value
  | Bool b -> if b then "yes" else "no"
  | String s -> s
  | Bignat b -> Bignat.to_string b

(* The EXPERIMENTS.md tables and the engine-baseline text output
   depend on this layout byte for byte. *)
let table_to_text (t : table) =
  let headers = List.map (fun c -> c.header) t.columns in
  let aligns = List.map (fun c -> c.align) t.columns in
  let widths = Array.of_list (List.map String.length headers) in
  let note_row = function
    | Separator -> ()
    | Cells cells ->
        List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length (cell_text c))) cells
  in
  List.iter note_row t.rows;
  let pad align width s =
    let gap = width - String.length s in
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s
  in
  let buf = Buffer.create 256 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let align = List.nth aligns i in
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad align widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  rule ();
  line headers;
  rule ();
  List.iter
    (function Cells cells -> line (List.map cell_text cells) | Separator -> rule ())
    t.rows;
  rule ();
  Buffer.contents buf

let rec item_to_text = function
  | Table t -> table_to_text t
  | Metrics { title; pairs } ->
      let buf = Buffer.create 64 in
      Option.iter
        (fun t ->
          Buffer.add_string buf t;
          Buffer.add_char buf '\n')
        title;
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf "  ";
          Buffer.add_string buf k;
          Buffer.add_string buf ": ";
          Buffer.add_string buf (cell_text v);
          Buffer.add_char buf '\n')
        pairs;
      Buffer.contents buf
  | Text s -> if s = "" || s.[String.length s - 1] = '\n' then s else s ^ "\n"
  | Section { heading; items } ->
      heading ^ "\n" ^ String.concat "\n" (List.map item_to_text items)

let to_text_body r = String.concat "\n" (List.map item_to_text r.items)

let to_text r =
  let verdict =
    match r.ok with Some true -> " [ok]" | Some false -> " [FAILED]" | None -> ""
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "== %s: %s%s\n" r.id r.title verdict);
  Buffer.add_string buf (to_text_body r);
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n)) r.notes;
  Buffer.contents buf

(* ------------------------- JSON renderer ------------------------- *)

let json_of_cell = function
  | Int n -> Json.Obj [ ("type", Json.String "int"); ("value", Json.Int n) ]
  | Float { value; decimals } ->
      Json.Obj
        [
          ("type", Json.String "float");
          ("value", if Float.is_finite value then Json.Float value else Json.Null);
          ("decimals", Json.Int decimals);
        ]
  | Bool b -> Json.Obj [ ("type", Json.String "bool"); ("value", Json.Bool b) ]
  | String s -> Json.Obj [ ("type", Json.String "string"); ("value", Json.String s) ]
  | Bignat b ->
      Json.Obj [ ("type", Json.String "bignat"); ("value", Json.String (Bignat.to_string b)) ]

let json_of_column c =
  Json.Obj
    [
      ("header", Json.String c.header);
      ("align", Json.String (match c.align with Left -> "left" | Right -> "right"));
      ("unit", match c.unit_ with Some u -> Json.String u | None -> Json.Null);
    ]

let json_of_row = function
  | Separator -> Json.Obj [ ("kind", Json.String "separator") ]
  | Cells cells ->
      Json.Obj
        [ ("kind", Json.String "cells"); ("cells", Json.List (List.map json_of_cell cells)) ]

let rec json_of_item = function
  | Table t ->
      Json.Obj
        [
          ("kind", Json.String "table");
          ("title", Json.String t.title);
          ("columns", Json.List (List.map json_of_column t.columns));
          ("rows", Json.List (List.map json_of_row t.rows));
        ]
  | Metrics { title; pairs } ->
      Json.Obj
        [
          ("kind", Json.String "metrics");
          ("title", match title with Some t -> Json.String t | None -> Json.Null);
          ( "pairs",
            Json.List
              (List.map
                 (fun (k, v) ->
                   Json.Obj [ ("key", Json.String k); ("value", json_of_cell v) ])
                 pairs) );
        ]
  | Text s -> Json.Obj [ ("kind", Json.String "text"); ("text", Json.String s) ]
  | Section { heading; items } ->
      Json.Obj
        [
          ("kind", Json.String "section");
          ("heading", Json.String heading);
          ("items", Json.List (List.map json_of_item items));
        ]

let to_json r =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("id", Json.String r.id);
      ("title", Json.String r.title);
      ("ok", match r.ok with Some b -> Json.Bool b | None -> Json.Null);
      ("notes", Json.List (List.map (fun n -> Json.String n) r.notes));
      ("items", Json.List (List.map json_of_item r.items));
    ]

let set_to_json reports =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("kind", Json.String "report-set");
      ("reports", Json.List (List.map to_json reports));
    ]

(* ------------------------- JSON reader ------------------------- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let as_string what = function
  | Json.String s -> Ok s
  | _ -> Error (Printf.sprintf "%s: expected a string" what)

let as_int what = function
  | Json.Int n -> Ok n
  | _ -> Error (Printf.sprintf "%s: expected an integer" what)

let as_list what = function
  | Json.List l -> Ok l
  | _ -> Error (Printf.sprintf "%s: expected a list" what)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let cell_of_json j =
  let* ty = field "type" j in
  let* ty = as_string "cell type" ty in
  let* v = field "value" j in
  match (ty, v) with
  | "int", Json.Int n -> Ok (Int n)
  | "float", (Json.Float _ | Json.Int _ | Json.Null) ->
      let value =
        match v with
        | Json.Float f -> f
        | Json.Int n -> float_of_int n
        | _ -> Float.nan
      in
      let* d = field "decimals" j in
      let* decimals = as_int "decimals" d in
      Ok (Float { value; decimals })
  | "bool", Json.Bool b -> Ok (Bool b)
  | "string", Json.String s -> Ok (String s)
  | "bignat", Json.String s -> (
      match Bignat.of_string s with
      | Some b -> Ok (Bignat b)
      | None -> Error (Printf.sprintf "bignat cell: bad digits %S" s))
  | ty, _ -> Error (Printf.sprintf "cell: bad type/value combination for %S" ty)

let column_of_json j =
  let* h = field "header" j in
  let* header = as_string "column header" h in
  let* a = field "align" j in
  let* align =
    match a with
    | Json.String "left" -> Ok Left
    | Json.String "right" -> Ok Right
    | _ -> Error "column align: expected \"left\" or \"right\""
  in
  let* unit_ =
    match Json.member "unit" j with
    | Some (Json.String u) -> Ok (Some u)
    | Some Json.Null | None -> Ok None
    | Some _ -> Error "column unit: expected a string or null"
  in
  Ok { header; align; unit_ }

let row_of_json j =
  let* k = field "kind" j in
  let* kind = as_string "row kind" k in
  match kind with
  | "separator" -> Ok Separator
  | "cells" ->
      let* cs = field "cells" j in
      let* cs = as_list "row cells" cs in
      let* cells = map_result cell_of_json cs in
      Ok (Cells cells)
  | k -> Error (Printf.sprintf "row: unknown kind %S" k)

let rec item_of_json j =
  let* k = field "kind" j in
  let* kind = as_string "item kind" k in
  match kind with
  | "table" ->
      let* t = field "title" j in
      let* title = as_string "table title" t in
      let* cs = field "columns" j in
      let* cs = as_list "table columns" cs in
      let* columns = map_result column_of_json cs in
      let* rs = field "rows" j in
      let* rs = as_list "table rows" rs in
      let* rows = map_result row_of_json rs in
      Ok (Table { title; columns; rows })
  | "metrics" ->
      let* title =
        match Json.member "title" j with
        | Some (Json.String t) -> Ok (Some t)
        | Some Json.Null | None -> Ok None
        | Some _ -> Error "metrics title: expected a string or null"
      in
      let* ps = field "pairs" j in
      let* ps = as_list "metrics pairs" ps in
      let* pairs =
        map_result
          (fun p ->
            let* k = field "key" p in
            let* key = as_string "pair key" k in
            let* v = field "value" p in
            let* value = cell_of_json v in
            Ok (key, value))
          ps
      in
      Ok (Metrics { title; pairs })
  | "text" ->
      let* t = field "text" j in
      let* text = as_string "text item" t in
      Ok (Text text)
  | "section" ->
      let* h = field "heading" j in
      let* heading = as_string "section heading" h in
      let* is = field "items" j in
      let* is = as_list "section items" is in
      let* items = map_result item_of_json is in
      Ok (Section { heading; items })
  | k -> Error (Printf.sprintf "item: unknown kind %S" k)

let of_json j =
  let* v = field "schema_version" j in
  let* v = as_int "schema_version" v in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d (expected %d)" v schema_version)
  else
    let* id = field "id" j in
    let* id = as_string "id" id in
    let* title = field "title" j in
    let* title = as_string "title" title in
    let* ok =
      match Json.member "ok" j with
      | Some (Json.Bool b) -> Ok (Some b)
      | Some Json.Null -> Ok None
      | Some _ -> Error "ok: expected a boolean or null"
      | None -> Error "missing field \"ok\""
    in
    let* notes = field "notes" j in
    let* notes = as_list "notes" notes in
    let* notes = map_result (as_string "note") notes in
    let* items = field "items" j in
    let* items = as_list "items" items in
    let* items = map_result item_of_json items in
    Ok { id; title; ok; notes; items }

let set_of_json j =
  match Json.member "kind" j with
  | Some (Json.String "report-set") ->
      let* v = field "schema_version" j in
      let* v = as_int "schema_version" v in
      if v <> schema_version then
        Error (Printf.sprintf "unsupported schema_version %d (expected %d)" v schema_version)
      else
        let* rs = field "reports" j in
        let* rs = as_list "reports" rs in
        map_result of_json rs
  | Some _ | None ->
      let* r = of_json j in
      Ok [ r ]

(* ------------------------- CSV renderer ------------------------- *)

let csv_quote s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let to_csv r =
  let buf = Buffer.create 512 in
  let line cells = Buffer.add_string buf (String.concat "," (List.map csv_quote cells) ^ "\n") in
  Buffer.add_string buf (Printf.sprintf "# report: %s: %s\n" r.id r.title);
  (match r.ok with
  | Some b -> Buffer.add_string buf (Printf.sprintf "# ok: %s\n" (if b then "yes" else "no"))
  | None -> ());
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "# note: %s\n" n)) r.notes;
  let rec item = function
    | Table t ->
        Buffer.add_string buf (Printf.sprintf "# table: %s\n" t.title);
        line
          (List.map
             (fun c ->
               match c.unit_ with Some u -> c.header ^ " (" ^ u ^ ")" | None -> c.header)
             t.columns);
        List.iter
          (function Cells cells -> line (List.map cell_text cells) | Separator -> ())
          t.rows
    | Metrics { title; pairs } ->
        Buffer.add_string buf
          (Printf.sprintf "# metrics%s\n"
             (match title with Some t -> ": " ^ t | None -> ""));
        List.iter (fun (k, v) -> line [ k; cell_text v ]) pairs
    | Text s -> Buffer.add_string buf (Printf.sprintf "# %s\n" s)
    | Section { heading; items } ->
        Buffer.add_string buf (Printf.sprintf "# section: %s\n" heading);
        List.iter item items
  in
  List.iter item r.items;
  Buffer.contents buf

let validate_artifact s =
  let* j = Json.parse s in
  let* reports = set_of_json j in
  (* The round-trip is part of the contract: anything we accept must
     re-serialize to the same artifact shape. *)
  let* reparsed = set_of_json (set_to_json reports) in
  if List.length reparsed <> List.length reports then Error "round-trip changed report count"
  else Ok (List.length reports)
