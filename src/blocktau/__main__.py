from blocktau.cli import main

raise SystemExit(main())
