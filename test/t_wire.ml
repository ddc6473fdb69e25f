(* The serve wire codec pinned two ways.  Golden bytes: every request op,
   every reply status and payload and a manifest-shaped document, encoded
   and compared byte for byte with what the previous encoder (the one kept
   in [Json_oracle]) printed for them.  Decoder fuzz: arbitrary bytes, every
   truncation of the golden lines, mutated documents, invalid UTF-8, bare
   non-finite tokens, huge exponents and deep nesting up to the serve line
   cap must never make [Json.parse] or the [Protocol] decoders raise, and
   [Json.parse] must agree with [Json_oracle.parse]: the same values, with
   floats compared by their bits, and an error wherever it errs. *)

module Protocol = Mica_serve.Protocol
module Server = Mica_serve.Server
module Json = Mica_obs.Json
module Oracle = Json_oracle

open QCheck2

(* ---------------- cases ---------------- *)

let floats =
  [
    -0.0; 0.0; 5e-324; 0.1; 1e15 -. 1.0; 1e15; 1e15 +. 1.0; Float.max_float; Float.nan;
    Float.infinity; Float.neg_infinity; Float.min_float; 1e-5; -2.5; 123.456; 1e21;
    4503599627370497.0; 9007199254740993.0; -1e-300; Float.pi; 0.30000000000000004; -7.0;
  ]

let names =
  [
    "MiBench/sha/large"; "a\"quoted\"name"; "back\\slash\\"; "ctl\001\031\n\r\t\b\012\127";
    "utf8 \xc3\xa9\xe2\x82\xac"; ""; "/slash/ and spaces"; "\xff\xfe invalid utf8";
  ]

let req id op deadline_ms = { Protocol.id; op; deadline_ms }

let requests =
  List.concat
    [
      List.mapi
        (fun i w ->
          req i (Protocol.Characterize { workload = w; estimate = i mod 2 = 0 }) None)
        names;
      List.mapi (fun i a -> req (-i) (Protocol.Distance { a; b = "SPEC2000/mcf/ref" }) None) names;
      List.mapi
        (fun i threshold ->
          req (1000 + i) (Protocol.Classify { workload = "MiBench/sha/large"; threshold }) None)
        floats;
      List.map
        (fun k -> req k (Protocol.Knn { workload = "SPEC2000/swim/ref"; k }) None)
        [ 0; 1; 3; -1; 1 lsl 40 ];
      List.map (fun d -> req 7 Protocol.Health (Some d)) floats;
      [
        req 8 Protocol.Metrics None; req max_int Protocol.Health None;
        req min_int Protocol.Metrics None;
      ];
    ]

let statuses =
  [
    Protocol.Ok; Protocol.Error; Protocol.Overloaded; Protocol.Deadline; Protocol.Quarantined;
    Protocol.Draining;
  ]

let payloads =
  let fs = Array.of_list floats in
  [
    Protocol.Vector { mica = fs; hpc = [| 0.5; 2.25 |]; estimated = true; cached = false };
    Protocol.Vector { mica = [||]; hpc = [||]; estimated = false; cached = true };
  ]
  @ List.map (fun v -> Protocol.Number v) floats
  @ List.map
      (fun nearest ->
        Protocol.Classification { nearest; distance = 0.1; threshold = -0.0; within = true })
      names
  @ [
      Protocol.Classification
        { nearest = "x"; distance = Float.nan; threshold = Float.infinity; within = false };
      Protocol.Neighbors [];
      Protocol.Neighbors
        (List.map2 (fun n d -> (n, d)) names (List.filteri (fun i _ -> i < 8) floats));
      Protocol.Health_info { queue_depth = 0; queue_capacity = 64; draining = false; warm = 3 };
      Protocol.Health_info
        { queue_depth = -1; queue_capacity = max_int; draining = true; warm = 0 };
    ]
  @ List.map (fun s -> Protocol.Text s) names

let resp ?payload ?error ?backtrace ?retry_after_ms ?(elapsed_ms = 0.25) rid status =
  { Protocol.rid; status; payload; error; backtrace; elapsed_ms; retry_after_ms }

let responses =
  List.concat
    [
      List.map (fun s -> resp 1 s) statuses;
      List.map
        (fun s ->
          resp 2 s ~error:"why \"not\"\n" ~backtrace:"Raised at Foo.bar\n\tcalled from\001"
            ~retry_after_ms:40.0)
        statuses;
      List.mapi (fun i p -> resp (100 + i) Protocol.Ok ~payload:p) payloads;
      List.mapi
        (fun i e -> resp (-1) Protocol.Error ~elapsed_ms:e ~error:(List.nth names (i mod 8)))
        floats;
      List.map (fun r -> resp 3 Protocol.Overloaded ~retry_after_ms:r) floats;
    ]

(* A run manifest's shape: nested objects and lists, strings, booleans,
   null and non-finite numbers (written as null unless the wire asks for
   the bare tokens). *)
let manifest =
  Json.Obj
    [
      ("schema", Json.Str "mica-run/v1");
      ("created", Json.Str "2026-10-19T17:04:19Z");
      ("argv", Json.List (List.map (fun s -> Json.Str s) ("mica" :: names)));
      ( "config",
        Json.Obj
          [
            ("icount", Json.Num 20000.0); ("jobs", Json.Num 1.0); ("cache", Json.Bool true);
            ("ratio", Json.Num 0.1);
          ] );
      ("mica_jobs_env", Json.Null);
      ("bench", Json.List (List.map (fun f -> Json.Num f) floats));
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List [ Json.Obj [ ("k", Json.List [ Json.List []; Json.Bool false; Json.Null ]) ] ] );
    ]

let documents =
  [
    ("manifest compact", Json.to_string manifest);
    ("manifest pretty", Json.to_string ~pretty:true manifest);
    ("manifest bare", Json.to_string ~bare_non_finite:true manifest);
    ("manifest pretty bare", Json.to_string ~pretty:true ~bare_non_finite:true manifest);
  ]

(* ---------------- what the previous encoder printed ---------------- *)

let golden_requests =
  [
    "{\"id\":0,\"op\":\"characterize\",\"workload\":\"MiBench/sha/large\",\"estimate\":true}";
    "{\"id\":1,\"op\":\"characterize\",\"workload\":\"a\\\"quoted\\\"name\",\"estimate\":false}";
    "{\"id\":2,\"op\":\"characterize\",\"workload\":\"back\\\\slash\\\\\",\"estimate\":true}";
    "{\"id\":3,\"op\":\"characterize\",\"workload\":\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"estimate\":false}";
    "{\"id\":4,\"op\":\"characterize\",\"workload\":\"utf8 \195\169\226\130\172\",\"estimate\":true}";
    "{\"id\":5,\"op\":\"characterize\",\"workload\":\"\",\"estimate\":false}";
    "{\"id\":6,\"op\":\"characterize\",\"workload\":\"/slash/ and spaces\",\"estimate\":true}";
    "{\"id\":7,\"op\":\"characterize\",\"workload\":\"\255\254 invalid utf8\",\"estimate\":false}";
    "{\"id\":0,\"op\":\"distance\",\"a\":\"MiBench/sha/large\",\"b\":\"SPEC2000/mcf/ref\"}";
    "{\"id\":-1,\"op\":\"distance\",\"a\":\"a\\\"quoted\\\"name\",\"b\":\"SPEC2000/mcf/ref\"}";
    "{\"id\":-2,\"op\":\"distance\",\"a\":\"back\\\\slash\\\\\",\"b\":\"SPEC2000/mcf/ref\"}";
    "{\"id\":-3,\"op\":\"distance\",\"a\":\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"b\":\"SPEC2000/mcf/ref\"}";
    "{\"id\":-4,\"op\":\"distance\",\"a\":\"utf8 \195\169\226\130\172\",\"b\":\"SPEC2000/mcf/ref\"}";
    "{\"id\":-5,\"op\":\"distance\",\"a\":\"\",\"b\":\"SPEC2000/mcf/ref\"}";
    "{\"id\":-6,\"op\":\"distance\",\"a\":\"/slash/ and spaces\",\"b\":\"SPEC2000/mcf/ref\"}";
    "{\"id\":-7,\"op\":\"distance\",\"a\":\"\255\254 invalid utf8\",\"b\":\"SPEC2000/mcf/ref\"}";
    "{\"id\":1000,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":-0}";
    "{\"id\":1001,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":0}";
    "{\"id\":1002,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":4.9406564584124654e-324}";
    "{\"id\":1003,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":0.10000000000000001}";
    "{\"id\":1004,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":999999999999999}";
    "{\"id\":1005,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":1000000000000000}";
    "{\"id\":1006,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":1000000000000001}";
    "{\"id\":1007,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":1.7976931348623157e+308}";
    "{\"id\":1008,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":nan}";
    "{\"id\":1009,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":inf}";
    "{\"id\":1010,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":-inf}";
    "{\"id\":1011,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":2.2250738585072014e-308}";
    "{\"id\":1012,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":1.0000000000000001e-05}";
    "{\"id\":1013,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":-2.5}";
    "{\"id\":1014,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":123.456}";
    "{\"id\":1015,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":1e+21}";
    "{\"id\":1016,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":4503599627370497}";
    "{\"id\":1017,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":9007199254740992}";
    "{\"id\":1018,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":-1e-300}";
    "{\"id\":1019,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":3.1415926535897931}";
    "{\"id\":1020,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":0.30000000000000004}";
    "{\"id\":1021,\"op\":\"classify\",\"workload\":\"MiBench/sha/large\",\"threshold\":-7}";
    "{\"id\":0,\"op\":\"knn\",\"workload\":\"SPEC2000/swim/ref\",\"k\":0}";
    "{\"id\":1,\"op\":\"knn\",\"workload\":\"SPEC2000/swim/ref\",\"k\":1}";
    "{\"id\":3,\"op\":\"knn\",\"workload\":\"SPEC2000/swim/ref\",\"k\":3}";
    "{\"id\":-1,\"op\":\"knn\",\"workload\":\"SPEC2000/swim/ref\",\"k\":-1}";
    "{\"id\":1099511627776,\"op\":\"knn\",\"workload\":\"SPEC2000/swim/ref\",\"k\":1099511627776}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":-0}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":0}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":4.9406564584124654e-324}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":0.10000000000000001}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":999999999999999}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":1000000000000000}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":1000000000000001}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":1.7976931348623157e+308}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":nan}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":inf}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":-inf}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":2.2250738585072014e-308}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":1.0000000000000001e-05}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":-2.5}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":123.456}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":1e+21}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":4503599627370497}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":9007199254740992}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":-1e-300}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":3.1415926535897931}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":0.30000000000000004}";
    "{\"id\":7,\"op\":\"health\",\"deadline_ms\":-7}";
    "{\"id\":8,\"op\":\"metrics\"}";
    "{\"id\":4.6116860184273879e+18,\"op\":\"health\"}";
    "{\"id\":-4.6116860184273879e+18,\"op\":\"metrics\"}";
  ]

let golden_responses =
  [
    "{\"id\":1,\"status\":\"ok\",\"elapsed_ms\":0.25}";
    "{\"id\":1,\"status\":\"error\",\"elapsed_ms\":0.25}";
    "{\"id\":1,\"status\":\"overloaded\",\"elapsed_ms\":0.25}";
    "{\"id\":1,\"status\":\"deadline\",\"elapsed_ms\":0.25}";
    "{\"id\":1,\"status\":\"quarantined\",\"elapsed_ms\":0.25}";
    "{\"id\":1,\"status\":\"draining\",\"elapsed_ms\":0.25}";
    "{\"id\":2,\"status\":\"ok\",\"error\":\"why \\\"not\\\"\\n\",\"backtrace\":\"Raised at Foo.bar\\n\\tcalled from\\u0001\",\"elapsed_ms\":0.25,\"retry_after_ms\":40}";
    "{\"id\":2,\"status\":\"error\",\"error\":\"why \\\"not\\\"\\n\",\"backtrace\":\"Raised at Foo.bar\\n\\tcalled from\\u0001\",\"elapsed_ms\":0.25,\"retry_after_ms\":40}";
    "{\"id\":2,\"status\":\"overloaded\",\"error\":\"why \\\"not\\\"\\n\",\"backtrace\":\"Raised at Foo.bar\\n\\tcalled from\\u0001\",\"elapsed_ms\":0.25,\"retry_after_ms\":40}";
    "{\"id\":2,\"status\":\"deadline\",\"error\":\"why \\\"not\\\"\\n\",\"backtrace\":\"Raised at Foo.bar\\n\\tcalled from\\u0001\",\"elapsed_ms\":0.25,\"retry_after_ms\":40}";
    "{\"id\":2,\"status\":\"quarantined\",\"error\":\"why \\\"not\\\"\\n\",\"backtrace\":\"Raised at Foo.bar\\n\\tcalled from\\u0001\",\"elapsed_ms\":0.25,\"retry_after_ms\":40}";
    "{\"id\":2,\"status\":\"draining\",\"error\":\"why \\\"not\\\"\\n\",\"backtrace\":\"Raised at Foo.bar\\n\\tcalled from\\u0001\",\"elapsed_ms\":0.25,\"retry_after_ms\":40}";
    "{\"id\":100,\"status\":\"ok\",\"payload\":{\"kind\":\"vector\",\"estimated\":true,\"cached\":false,\"mica\":[-0,0,4.9406564584124654e-324,0.10000000000000001,999999999999999,1000000000000000,1000000000000001,1.7976931348623157e+308,nan,inf,-inf,2.2250738585072014e-308,1.0000000000000001e-05,-2.5,123.456,1e+21,4503599627370497,9007199254740992,-1e-300,3.1415926535897931,0.30000000000000004,-7],\"hpc\":[0.5,2.25]},\"elapsed_ms\":0.25}";
    "{\"id\":101,\"status\":\"ok\",\"payload\":{\"kind\":\"vector\",\"estimated\":false,\"cached\":true,\"mica\":[],\"hpc\":[]},\"elapsed_ms\":0.25}";
    "{\"id\":102,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":-0},\"elapsed_ms\":0.25}";
    "{\"id\":103,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":0},\"elapsed_ms\":0.25}";
    "{\"id\":104,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":4.9406564584124654e-324},\"elapsed_ms\":0.25}";
    "{\"id\":105,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":0.10000000000000001},\"elapsed_ms\":0.25}";
    "{\"id\":106,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":999999999999999},\"elapsed_ms\":0.25}";
    "{\"id\":107,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":1000000000000000},\"elapsed_ms\":0.25}";
    "{\"id\":108,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":1000000000000001},\"elapsed_ms\":0.25}";
    "{\"id\":109,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":1.7976931348623157e+308},\"elapsed_ms\":0.25}";
    "{\"id\":110,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":nan},\"elapsed_ms\":0.25}";
    "{\"id\":111,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":inf},\"elapsed_ms\":0.25}";
    "{\"id\":112,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":-inf},\"elapsed_ms\":0.25}";
    "{\"id\":113,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":2.2250738585072014e-308},\"elapsed_ms\":0.25}";
    "{\"id\":114,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":1.0000000000000001e-05},\"elapsed_ms\":0.25}";
    "{\"id\":115,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":-2.5},\"elapsed_ms\":0.25}";
    "{\"id\":116,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":123.456},\"elapsed_ms\":0.25}";
    "{\"id\":117,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":1e+21},\"elapsed_ms\":0.25}";
    "{\"id\":118,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":4503599627370497},\"elapsed_ms\":0.25}";
    "{\"id\":119,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":9007199254740992},\"elapsed_ms\":0.25}";
    "{\"id\":120,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":-1e-300},\"elapsed_ms\":0.25}";
    "{\"id\":121,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":3.1415926535897931},\"elapsed_ms\":0.25}";
    "{\"id\":122,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":0.30000000000000004},\"elapsed_ms\":0.25}";
    "{\"id\":123,\"status\":\"ok\",\"payload\":{\"kind\":\"number\",\"value\":-7},\"elapsed_ms\":0.25}";
    "{\"id\":124,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"MiBench/sha/large\",\"distance\":0.10000000000000001,\"threshold\":-0,\"within\":true},\"elapsed_ms\":0.25}";
    "{\"id\":125,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"a\\\"quoted\\\"name\",\"distance\":0.10000000000000001,\"threshold\":-0,\"within\":true},\"elapsed_ms\":0.25}";
    "{\"id\":126,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"back\\\\slash\\\\\",\"distance\":0.10000000000000001,\"threshold\":-0,\"within\":true},\"elapsed_ms\":0.25}";
    "{\"id\":127,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"distance\":0.10000000000000001,\"threshold\":-0,\"within\":true},\"elapsed_ms\":0.25}";
    "{\"id\":128,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"utf8 \195\169\226\130\172\",\"distance\":0.10000000000000001,\"threshold\":-0,\"within\":true},\"elapsed_ms\":0.25}";
    "{\"id\":129,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"\",\"distance\":0.10000000000000001,\"threshold\":-0,\"within\":true},\"elapsed_ms\":0.25}";
    "{\"id\":130,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"/slash/ and spaces\",\"distance\":0.10000000000000001,\"threshold\":-0,\"within\":true},\"elapsed_ms\":0.25}";
    "{\"id\":131,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"\255\254 invalid utf8\",\"distance\":0.10000000000000001,\"threshold\":-0,\"within\":true},\"elapsed_ms\":0.25}";
    "{\"id\":132,\"status\":\"ok\",\"payload\":{\"kind\":\"classification\",\"nearest\":\"x\",\"distance\":nan,\"threshold\":inf,\"within\":false},\"elapsed_ms\":0.25}";
    "{\"id\":133,\"status\":\"ok\",\"payload\":{\"kind\":\"neighbors\",\"items\":[]},\"elapsed_ms\":0.25}";
    "{\"id\":134,\"status\":\"ok\",\"payload\":{\"kind\":\"neighbors\",\"items\":[{\"name\":\"MiBench/sha/large\",\"distance\":-0},{\"name\":\"a\\\"quoted\\\"name\",\"distance\":0},{\"name\":\"back\\\\slash\\\\\",\"distance\":4.9406564584124654e-324},{\"name\":\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"distance\":0.10000000000000001},{\"name\":\"utf8 \195\169\226\130\172\",\"distance\":999999999999999},{\"name\":\"\",\"distance\":1000000000000000},{\"name\":\"/slash/ and spaces\",\"distance\":1000000000000001},{\"name\":\"\255\254 invalid utf8\",\"distance\":1.7976931348623157e+308}]},\"elapsed_ms\":0.25}";
    "{\"id\":135,\"status\":\"ok\",\"payload\":{\"kind\":\"health\",\"queue_depth\":0,\"queue_capacity\":64,\"draining\":false,\"warm\":3},\"elapsed_ms\":0.25}";
    "{\"id\":136,\"status\":\"ok\",\"payload\":{\"kind\":\"health\",\"queue_depth\":-1,\"queue_capacity\":4.6116860184273879e+18,\"draining\":true,\"warm\":0},\"elapsed_ms\":0.25}";
    "{\"id\":137,\"status\":\"ok\",\"payload\":{\"kind\":\"text\",\"text\":\"MiBench/sha/large\"},\"elapsed_ms\":0.25}";
    "{\"id\":138,\"status\":\"ok\",\"payload\":{\"kind\":\"text\",\"text\":\"a\\\"quoted\\\"name\"},\"elapsed_ms\":0.25}";
    "{\"id\":139,\"status\":\"ok\",\"payload\":{\"kind\":\"text\",\"text\":\"back\\\\slash\\\\\"},\"elapsed_ms\":0.25}";
    "{\"id\":140,\"status\":\"ok\",\"payload\":{\"kind\":\"text\",\"text\":\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\"},\"elapsed_ms\":0.25}";
    "{\"id\":141,\"status\":\"ok\",\"payload\":{\"kind\":\"text\",\"text\":\"utf8 \195\169\226\130\172\"},\"elapsed_ms\":0.25}";
    "{\"id\":142,\"status\":\"ok\",\"payload\":{\"kind\":\"text\",\"text\":\"\"},\"elapsed_ms\":0.25}";
    "{\"id\":143,\"status\":\"ok\",\"payload\":{\"kind\":\"text\",\"text\":\"/slash/ and spaces\"},\"elapsed_ms\":0.25}";
    "{\"id\":144,\"status\":\"ok\",\"payload\":{\"kind\":\"text\",\"text\":\"\255\254 invalid utf8\"},\"elapsed_ms\":0.25}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"MiBench/sha/large\",\"elapsed_ms\":-0}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"a\\\"quoted\\\"name\",\"elapsed_ms\":0}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"back\\\\slash\\\\\",\"elapsed_ms\":4.9406564584124654e-324}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"elapsed_ms\":0.10000000000000001}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"utf8 \195\169\226\130\172\",\"elapsed_ms\":999999999999999}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"\",\"elapsed_ms\":1000000000000000}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"/slash/ and spaces\",\"elapsed_ms\":1000000000000001}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"\255\254 invalid utf8\",\"elapsed_ms\":1.7976931348623157e+308}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"MiBench/sha/large\",\"elapsed_ms\":nan}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"a\\\"quoted\\\"name\",\"elapsed_ms\":inf}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"back\\\\slash\\\\\",\"elapsed_ms\":-inf}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"elapsed_ms\":2.2250738585072014e-308}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"utf8 \195\169\226\130\172\",\"elapsed_ms\":1.0000000000000001e-05}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"\",\"elapsed_ms\":-2.5}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"/slash/ and spaces\",\"elapsed_ms\":123.456}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"\255\254 invalid utf8\",\"elapsed_ms\":1e+21}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"MiBench/sha/large\",\"elapsed_ms\":4503599627370497}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"a\\\"quoted\\\"name\",\"elapsed_ms\":9007199254740992}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"back\\\\slash\\\\\",\"elapsed_ms\":-1e-300}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"elapsed_ms\":3.1415926535897931}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"utf8 \195\169\226\130\172\",\"elapsed_ms\":0.30000000000000004}";
    "{\"id\":-1,\"status\":\"error\",\"error\":\"\",\"elapsed_ms\":-7}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":-0}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":0}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":4.9406564584124654e-324}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":0.10000000000000001}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":999999999999999}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":1000000000000000}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":1000000000000001}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":1.7976931348623157e+308}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":nan}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":inf}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":-inf}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":2.2250738585072014e-308}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":1.0000000000000001e-05}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":-2.5}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":123.456}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":1e+21}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":4503599627370497}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":9007199254740992}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":-1e-300}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":3.1415926535897931}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":0.30000000000000004}";
    "{\"id\":3,\"status\":\"overloaded\",\"elapsed_ms\":0.25,\"retry_after_ms\":-7}";
  ]

let golden_documents =
  [
    ("manifest compact", "{\"schema\":\"mica-run/v1\",\"created\":\"2026-10-19T17:04:19Z\",\"argv\":[\"mica\",\"MiBench/sha/large\",\"a\\\"quoted\\\"name\",\"back\\\\slash\\\\\",\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"utf8 \195\169\226\130\172\",\"\",\"/slash/ and spaces\",\"\255\254 invalid utf8\"],\"config\":{\"icount\":20000,\"jobs\":1,\"cache\":true,\"ratio\":0.10000000000000001},\"mica_jobs_env\":null,\"bench\":[-0,0,4.9406564584124654e-324,0.10000000000000001,999999999999999,1000000000000000,1000000000000001,1.7976931348623157e+308,null,null,null,2.2250738585072014e-308,1.0000000000000001e-05,-2.5,123.456,1e+21,4503599627370497,9007199254740992,-1e-300,3.1415926535897931,0.30000000000000004,-7],\"empty_list\":[],\"empty_obj\":{},\"nested\":[{\"k\":[[],false,null]}]}");
    ("manifest pretty", "{\n  \"schema\": \"mica-run/v1\",\n  \"created\": \"2026-10-19T17:04:19Z\",\n  \"argv\": [\n    \"mica\",\n    \"MiBench/sha/large\",\n    \"a\\\"quoted\\\"name\",\n    \"back\\\\slash\\\\\",\n    \"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\n    \"utf8 \195\169\226\130\172\",\n    \"\",\n    \"/slash/ and spaces\",\n    \"\255\254 invalid utf8\"\n  ],\n  \"config\": {\n    \"icount\": 20000,\n    \"jobs\": 1,\n    \"cache\": true,\n    \"ratio\": 0.10000000000000001\n  },\n  \"mica_jobs_env\": null,\n  \"bench\": [\n    -0,\n    0,\n    4.9406564584124654e-324,\n    0.10000000000000001,\n    999999999999999,\n    1000000000000000,\n    1000000000000001,\n    1.7976931348623157e+308,\n    null,\n    null,\n    null,\n    2.2250738585072014e-308,\n    1.0000000000000001e-05,\n    -2.5,\n    123.456,\n    1e+21,\n    4503599627370497,\n    9007199254740992,\n    -1e-300,\n    3.1415926535897931,\n    0.30000000000000004,\n    -7\n  ],\n  \"empty_list\": [],\n  \"empty_obj\": {},\n  \"nested\": [\n    {\n      \"k\": [\n        [],\n        false,\n        null\n      ]\n    }\n  ]\n}");
    ("manifest bare", "{\"schema\":\"mica-run/v1\",\"created\":\"2026-10-19T17:04:19Z\",\"argv\":[\"mica\",\"MiBench/sha/large\",\"a\\\"quoted\\\"name\",\"back\\\\slash\\\\\",\"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\"utf8 \195\169\226\130\172\",\"\",\"/slash/ and spaces\",\"\255\254 invalid utf8\"],\"config\":{\"icount\":20000,\"jobs\":1,\"cache\":true,\"ratio\":0.10000000000000001},\"mica_jobs_env\":null,\"bench\":[-0,0,4.9406564584124654e-324,0.10000000000000001,999999999999999,1000000000000000,1000000000000001,1.7976931348623157e+308,nan,inf,-inf,2.2250738585072014e-308,1.0000000000000001e-05,-2.5,123.456,1e+21,4503599627370497,9007199254740992,-1e-300,3.1415926535897931,0.30000000000000004,-7],\"empty_list\":[],\"empty_obj\":{},\"nested\":[{\"k\":[[],false,null]}]}");
    ("manifest pretty bare", "{\n  \"schema\": \"mica-run/v1\",\n  \"created\": \"2026-10-19T17:04:19Z\",\n  \"argv\": [\n    \"mica\",\n    \"MiBench/sha/large\",\n    \"a\\\"quoted\\\"name\",\n    \"back\\\\slash\\\\\",\n    \"ctl\\u0001\\u001f\\n\\r\\t\\u0008\\u000c\127\",\n    \"utf8 \195\169\226\130\172\",\n    \"\",\n    \"/slash/ and spaces\",\n    \"\255\254 invalid utf8\"\n  ],\n  \"config\": {\n    \"icount\": 20000,\n    \"jobs\": 1,\n    \"cache\": true,\n    \"ratio\": 0.10000000000000001\n  },\n  \"mica_jobs_env\": null,\n  \"bench\": [\n    -0,\n    0,\n    4.9406564584124654e-324,\n    0.10000000000000001,\n    999999999999999,\n    1000000000000000,\n    1000000000000001,\n    1.7976931348623157e+308,\n    nan,\n    inf,\n    -inf,\n    2.2250738585072014e-308,\n    1.0000000000000001e-05,\n    -2.5,\n    123.456,\n    1e+21,\n    4503599627370497,\n    9007199254740992,\n    -1e-300,\n    3.1415926535897931,\n    0.30000000000000004,\n    -7\n  ],\n  \"empty_list\": [],\n  \"empty_obj\": {},\n  \"nested\": [\n    {\n      \"k\": [\n        [],\n        false,\n        null\n      ]\n    }\n  ]\n}");
  ]

(* ---------------- golden bytes ---------------- *)

let check_lines what encoded golden =
  Alcotest.(check int) (what ^ ": case count") (List.length golden) (List.length encoded);
  List.iteri
    (fun i (e, g) -> Alcotest.(check string) (Printf.sprintf "%s %d" what i) g e)
    (List.combine encoded golden)

let test_golden_requests () =
  check_lines "request" (List.map Protocol.encode_request requests) golden_requests

let test_golden_responses () =
  check_lines "response" (List.map Protocol.encode_response responses) golden_responses

let test_golden_documents () =
  check_lines "document" (List.map snd documents) (List.map snd golden_documents)

(* ---------------- the oracle ---------------- *)

let rec same_value (a : Json.t) (b : Oracle.t) =
  match (a, b) with
  | Json.Null, Oracle.Null -> true
  | Json.Bool x, Oracle.Bool y -> x = y
  | Json.Num x, Oracle.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Str x, Oracle.Str y -> String.equal x y
  | Json.List xs, Oracle.List ys -> List.compare_lengths xs ys = 0 && List.for_all2 same_value xs ys
  | Json.Obj xs, Oracle.Obj ys ->
    List.compare_lengths xs ys = 0
    && List.for_all2 (fun (k, x) (k', y) -> String.equal k k' && same_value x y) xs ys
  | _ -> false

let rec to_oracle : Json.t -> Oracle.t = function
  | Json.Null -> Oracle.Null
  | Json.Bool b -> Oracle.Bool b
  | Json.Num f -> Oracle.Num f
  | Json.Str s -> Oracle.Str s
  | Json.List l -> Oracle.List (List.map to_oracle l)
  | Json.Obj kvs -> Oracle.Obj (List.map (fun (k, v) -> (k, to_oracle v)) kvs)

(* The decoders return, never raise, and the reader agrees with the
   oracle: equal values where it accepts, the same error where it
   rejects. *)
let decodes_like_oracle src =
  (match Protocol.decode_request src with Ok _ | Error _ -> ());
  (match Protocol.decode_response src with Ok _ | Error _ -> ());
  match (Json.parse src, Oracle.parse src) with
  | Ok a, Ok b -> same_value a b
  | Error e, Error e' -> String.equal e e'
  | Ok _, Error e -> Test.fail_reportf "accepted what the oracle rejects (%s)" e
  | Error e, Ok _ -> Test.fail_reportf "rejected what the oracle accepts (%s)" e

(* Near misses of the grammar, one slip each. *)
let test_near_misses () =
  List.iter
    (fun src ->
      if not (decodes_like_oracle src) then Alcotest.failf "%S differs from the oracle" src)
    [
      ""; " "; "["; "]"; "[1,]"; "[,1]"; "[1 2]"; "[1,,2]"; "{\"a\":1,}"; "{,}"; "{\"a\" 1}";
      "{\"a\":}"; "{1:2}"; "{\"a\":1}}"; "{\"a\":1]"; "[1}"; "\"\\q\""; "\"\\u12\"";
      "\"\\u12_4\""; "\"\\u_123\""; "\"abc"; "\"\\"; "01"; "1."; "-"; "+1"; "-0"; "1e";
      "1e+"; ".5"; "-.5"; "nul"; "nan1"; "-inf"; "-in"; "infinity"; "tru"; "true false";
      "{\"id\":1,\"op\":\"health\"}x"; "{\"id\":1,\"op\":\"health\"} \r\n";
    ]

let test_every_truncation () =
  List.iter
    (fun line ->
      for n = 0 to String.length line do
        let src = String.sub line 0 n in
        if not (decodes_like_oracle src) then Alcotest.failf "prefix %S differs from the oracle" src
      done)
    (golden_requests @ golden_responses)

(* ---------------- generators ---------------- *)

let float_gen =
  Gen.oneof
    [ Gen.map Int64.float_of_bits Gen.ui64; Gen.oneofl floats; Gen.float;
      Gen.map float_of_int (Gen.int_range (-100_000) 100_000);
      Gen.map float_of_int (Gen.int_range (-(1 lsl 53)) (1 lsl 53)) ]

let string_gen = Gen.oneof [ Gen.oneofl names; Gen.string_size ~gen:Gen.char (Gen.int_bound 12) ]

let tree_gen =
  Gen.sized_size (Gen.int_bound 24)
  @@ Gen.fix (fun self n ->
         let scalar =
           Gen.oneof
             [ Gen.return Json.Null; Gen.map (fun b -> Json.Bool b) Gen.bool;
               Gen.map (fun f -> Json.Num f) float_gen; Gen.map (fun s -> Json.Str s) string_gen ]
         in
         if n = 0 then scalar
         else
           Gen.frequency
             [
               (2, scalar);
               (1, Gen.map (fun l -> Json.List l) (Gen.list_size (Gen.int_bound 4) (self (n / 2))));
               ( 1,
                 Gen.map
                   (fun l -> Json.Obj l)
                   (Gen.list_size (Gen.int_bound 4) (Gen.pair string_gen (self (n / 2)))) );
             ])

(* Fragments that reach every branch of the reader, valid or not. *)
let tokens =
  [
    "{"; "}"; "["; "]"; ":"; ","; " "; "\n\t\r"; "\""; "\\"; "\"k\""; "\"id\""; "\"op\"";
    "\"health\""; "\"status\""; "\"ok\""; "\"payload\""; "\"kind\""; "\"vector\""; "\"mica\"";
    "0"; "-0"; "1"; "-1"; "17"; "007"; "0.1"; "1e5"; "1E+5"; "1e-5"; "-1.5e-300"; "1e999999";
    "-1e-999999"; "1e308"; "2e308"; "4.9406564584124654e-324"; "123456789012345";
    "1234567890123456"; "99999999999999999999"; "1.2.3"; "--1"; "1e"; "+1"; "."; "-."; "e"; "1.";
    "-.5"; "nan"; "inf"; "-inf"; "-infinity"; "NaN"; "true"; "false"; "null"; "nul"; "tru";
    "\\u0041"; "\\u12_4"; "\\u_123"; "\\u00e9"; "\\uD83D"; "\\uFFFF"; "\\uzzzz"; "\\u"; "\\u12";
    "\\x"; "\\n"; "\\/"; "\xc3\xa9"; "\xff"; "\xc3"; "\xed\xa0\x80"; "\000"; "\127";
  ]

let token_doc_gen =
  Gen.map (String.concat "") (Gen.list_size (Gen.int_bound 40) (Gen.oneofl tokens))

(* A valid document in any of the writer's modes, then maybe damaged:
   cut short, one byte replaced, a fragment spliced in, or one structural
   byte deleted, doubled, replaced or preceded by another. *)
let structural = [ ','; ':'; '['; ']'; '{'; '}'; '"' ]

let mutated_doc_gen =
  let open Gen in
  let* v = tree_gen in
  let* pretty = bool in
  let* bare = bool in
  let doc = Oracle.to_string ~pretty ~bare_non_finite:bare (to_oracle v) in
  let n = String.length doc in
  let* at = int_bound n in
  let* c = char in
  let* tok = oneofl tokens in
  let marks = List.filter (fun i -> List.mem doc.[i] structural) (List.init n Fun.id) in
  let* m = if marks = [] then return at else oneofl marks in
  let* s = oneofl structural in
  let cut i j = String.sub doc i (j - i) in
  let around i mid skip = cut 0 i ^ mid ^ cut (min n (i + skip)) n in
  oneofl
    [
      doc;
      cut 0 at;
      (if at < n then around at (String.make 1 c) 1 else doc);
      around at tok 0;
      around m "" 1;
      around m (String.make 2 doc.[min m (n - 1)]) 1;
      around m (String.make 1 s) 1;
      around m (String.make 1 s) 0;
    ]

(* Nesting from shallow to well past anything the serve wire carries,
   closed or left open, through lists and through objects. *)
let deep_gen =
  let open Gen in
  let* depth = oneof [ int_range 1 64; int_range 1_000 100_000 ] in
  let* closed = bool in
  let* in_objects = bool in
  let opening, inner, closing =
    if in_objects then ("{\"a\":", "1", "}") else ("[", "", "]")
  in
  let b = Buffer.create (depth * 6) in
  for _ = 1 to depth do
    Buffer.add_string b opening
  done;
  Buffer.add_string b inner;
  if closed then
    for _ = 1 to depth do
      Buffer.add_string b closing
    done;
  return (Buffer.contents b)

let print_doc s =
  if String.length s <= 200 then Printf.sprintf "%S" s
  else Printf.sprintf "%S..." (String.sub s 0 200)

let prop_bytes =
  Tutil.qcheck_case ~count:2000 ~print:print_doc "fuzz: arbitrary bytes decode like the oracle"
    (Gen.string_size ~gen:Gen.char (Gen.int_bound 64))
    decodes_like_oracle

let prop_tokens =
  Tutil.qcheck_case ~count:3000 ~print:print_doc "fuzz: token soup decodes like the oracle" token_doc_gen
    decodes_like_oracle

let prop_mutated =
  Tutil.qcheck_case ~count:2000 ~print:print_doc "fuzz: damaged documents decode like the oracle"
    mutated_doc_gen decodes_like_oracle

let prop_deep =
  Tutil.qcheck_case ~count:30 ~print:print_doc "fuzz: deep nesting decodes like the oracle" deep_gen
    decodes_like_oracle

(* At the line cap the reader needs no stack: half a cap of opening
   brackets and half of closing ones is one value that deep, and a whole
   cap of opening ones is an error, not an exception. *)
let test_nesting_at_line_cap () =
  let half = T_serve.max_line_bytes / 2 in
  let closed = String.make half '[' ^ String.make half ']' in
  (match Json.parse closed with
  | Ok v ->
    let rec depth d = function Json.List [ inner ] -> depth (d + 1) inner | Json.List [] -> d + 1 | _ -> -1 in
    Alcotest.(check int) "depth" half (depth 0 v)
  | Error e -> Alcotest.failf "balanced nesting rejected: %s" e);
  let open_only = String.make T_serve.max_line_bytes '[' in
  Alcotest.(check bool) "unclosed nesting is an error" true (Result.is_error (Json.parse open_only));
  Alcotest.(check bool) "request decoder" true (Result.is_error (Protocol.decode_request open_only));
  Alcotest.(check bool) "response decoder" true
    (Result.is_error (Protocol.decode_response open_only))

(* ---------------- writer differential ---------------- *)

let writes_like_oracle v =
  let o = to_oracle v in
  List.for_all
    (fun (pretty, bare_non_finite) ->
      String.equal
        (Json.to_string ~pretty ~bare_non_finite v)
        (Oracle.to_string ~pretty ~bare_non_finite o))
    [ (false, false); (false, true); (true, false); (true, true) ]

let prop_write_floats =
  Tutil.qcheck_case ~count:20_000 ~print:(fun f -> Printf.sprintf "%h" f)
    "writer: every float prints as the oracle printed it" float_gen (fun f ->
      writes_like_oracle (Json.Num f))

let prop_write_trees =
  Tutil.qcheck_case ~count:1000 "writer: documents print as the oracle printed them" tree_gen
    writes_like_oracle

let suite =
  ( "wire",
    [
      Alcotest.test_case "golden: every request op" `Quick test_golden_requests;
      Alcotest.test_case "golden: every reply status and payload" `Quick test_golden_responses;
      Alcotest.test_case "golden: manifest-shaped documents" `Quick test_golden_documents;
      Alcotest.test_case "fuzz: near misses of the grammar" `Quick test_near_misses;
      Alcotest.test_case "fuzz: every truncation of the golden lines" `Quick test_every_truncation;
      prop_bytes;
      prop_tokens;
      prop_mutated;
      prop_deep;
      Alcotest.test_case "fuzz: nesting at the line cap" `Quick test_nesting_at_line_cap;
      prop_write_floats;
      prop_write_trees;
    ] )
