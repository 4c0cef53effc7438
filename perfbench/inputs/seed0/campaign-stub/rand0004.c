#include <stdio.h>

int main(void) {
    unsigned a;
    {
        int c = 4;
        int b;
        a = a;
    }
    return 0;
}
